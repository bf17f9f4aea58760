//! E5 — active object store (§VI-A1): dataClay "also holds a registry
//! of the classes ... executed within the object store transparently
//! to applications. This feature minimizes the number of data
//! transfers from the data store to the application."

use crate::table::{fmt_x, ExperimentError, ExperimentTable, Scale};
use bytes::Bytes;
use continuum_platform::NodeId;
use continuum_storage::{ActiveStore, ClassDef, StorageRuntime, StoredValue};

/// Runs method shipping vs object fetching over growing object sizes.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    // Objects are genuinely allocated (replication included), so the
    // sweep is bounded to stay well under typical RAM.
    let sizes_mb: Vec<u64> = scale.pick(vec![1, 10, 100], vec![1, 10, 100, 400]);
    let objects = scale.pick(16, 8);

    let mut table = ExperimentTable::new(
        "e5",
        "executing methods inside the store minimises transfers (dataClay, §VI-A1)",
        &[
            "object_mb",
            "objects",
            "passive_moved_mb",
            "active_moved_mb",
            "saving",
        ],
    );
    for &mb in &sizes_mb {
        let store = ActiveStore::new((0..4).map(NodeId::from_raw).collect(), 2)?;
        store.register_class(ClassDef::new("TimeSeries").method("mean", |payload, _| {
            let sum: u64 = payload.iter().map(|b| *b as u64).sum();
            let mean = sum as f64 / payload.len().max(1) as f64;
            Bytes::copy_from_slice(&mean.to_le_bytes())
        }));
        for i in 0..objects {
            store.put(
                format!("series{i}").into(),
                StoredValue::object(vec![7u8; (mb * 1_000_000) as usize], "TimeSeries"),
                None,
            )?;
        }
        // Passive: fetch every object to compute client-side.
        for i in 0..objects {
            store.fetch(&format!("series{i}").into())?;
        }
        // Active: ship the method, get back 8 bytes.
        for i in 0..objects {
            store.execute(&format!("series{i}").into(), "mean", &[])?;
        }
        let stats = store.shipping_stats();
        let passive_mb = stats.passive_bytes() as f64 / 1e6;
        let active_mb = stats.active_bytes() as f64 / 1e6;
        table.row([
            mb.to_string(),
            objects.to_string(),
            format!("{passive_mb:.1}"),
            format!("{active_mb:.6}"),
            fmt_x(passive_mb / active_mb.max(1e-12)),
        ]);
    }
    table.finding(
        "method shipping moves only args+results; savings grow linearly with object size"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_style_moves_orders_of_magnitude_less() {
        let t = run(Scale::Quick).unwrap();
        for row in &t.rows {
            let passive: f64 = row[2].parse().unwrap();
            let active: f64 = row[3].parse().unwrap();
            assert!(passive > 1000.0 * active, "row {row:?}");
        }
        // Saving grows with object size.
        let first = t.cell_f64(0, 4);
        let last = t.cell_f64(t.rows.len() - 1, 4);
        assert!(last > first);
    }
}
