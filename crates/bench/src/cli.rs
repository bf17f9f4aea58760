//! What the five `*_bench` binaries share: their flags and the labelled,
//! mergeable `BENCH_*.json` file they record into.

use serde::Value;

/// The value following `flag` on the command line.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The flags every bench binary takes.
pub struct BenchArgs {
    /// `--smoke`: CI-sized workloads.
    pub smoke: bool,
    /// `--check`: enforce the binary's invariants, exit 2 on violation.
    pub check: bool,
    /// `--label <name>` (default `current`): the key this run is stored
    /// under, replacing an earlier run of the same label only.
    pub label: String,
    /// `--out <path>`: the JSON file to merge into.
    pub out: String,
    /// `--repeats <n>`: timed repeats per row (fastest kept).
    pub repeats: usize,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse(default_out: &str, default_repeats: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs {
            smoke: args.iter().any(|a| a == "--smoke"),
            check: args.iter().any(|a| a == "--check"),
            label: flag_value(&args, "--label").unwrap_or_else(|| "current".to_string()),
            out: flag_value(&args, "--out").unwrap_or_else(|| default_out.to_string()),
            repeats: flag_value(&args, "--repeats")
                .and_then(|r| r.parse().ok())
                .unwrap_or(default_repeats),
        }
    }

    /// `smoke` or `full`, as stored in each run's `scale` field.
    pub fn scale(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// The `repeats` field of a run's entry.
    pub fn repeats_field(&self) -> (String, Value) {
        ("repeats".to_string(), Value::U64(self.repeats as u64))
    }

    /// Stores `{"scale": …, entry…}` as `runs[label]` of the output
    /// file, keeping the runs recorded under other labels, and rewrites
    /// the file as `{"bench": bench, header…, "runs": …}`. Returns every
    /// run now in the file, for cross-label comparison. Exits the
    /// process with status 1 if the file cannot be written.
    pub fn record_run(
        &self,
        bench: &str,
        header: Vec<(String, Value)>,
        entry: Vec<(String, Value)>,
    ) -> Vec<(String, Value)> {
        let mut runs: Vec<(String, Value)> = std::fs::read_to_string(&self.out)
            .ok()
            .and_then(|text| serde::json::parse(&text).ok())
            .and_then(|doc| {
                doc.get("runs")
                    .and_then(|r| r.as_obj().map(<[(String, Value)]>::to_vec))
            })
            .unwrap_or_default();
        let mut fields = vec![("scale".to_string(), Value::Str(self.scale().to_string()))];
        fields.extend(entry);
        runs.retain(|(k, _)| *k != self.label);
        runs.push((self.label.clone(), Value::Obj(fields)));
        let mut doc = vec![("bench".to_string(), Value::Str(bench.to_string()))];
        doc.extend(header);
        doc.push(("runs".to_string(), Value::Obj(runs.clone())));
        if let Err(e) = std::fs::write(&self.out, Value::Obj(doc).to_string() + "\n") {
            eprintln!("cannot write {}: {e}", self.out);
            std::process::exit(1);
        }
        runs
    }

    /// Prints, under every other label in `runs`, how each of `results`
    /// stands against the stored row `same_case` finds for it, and
    /// returns whether the `--check` tripwire fired. `versus` gives the
    /// line to print and, for rows the tripwire gates, `(this run's
    /// ms, the stored run's ms)`: more than 3× slower than a same-scale
    /// label is a regression.
    pub fn compare_labels<T>(
        &self,
        runs: &[(String, Value)],
        results: &[T],
        same_case: impl Fn(&T, &Value) -> bool,
        versus: impl Fn(&T, &Value) -> (String, Option<(f64, f64)>),
    ) -> bool {
        let mut regressed = false;
        for (other_label, other) in runs {
            let Some(stored) = other.get("results").and_then(Value::as_arr) else {
                continue;
            };
            if *other_label == self.label {
                continue;
            }
            // Only same-scale runs are comparable for the tripwire.
            let gated = self.check && stored_str(other, "scale") == Some(self.scale());
            println!("\nlabel `{}` vs `{other_label}`:", self.label);
            for m in results {
                let Some(row) = stored.iter().find(|r| same_case(m, r)) else {
                    continue;
                };
                let (line, gate) = versus(m, row);
                println!("  {line}");
                let Some((ms, other_ms)) = gate else { continue };
                if gated && ms > other_ms * 3.0 {
                    eprintln!(
                        "  REGRESSION ({:.2}x slower than label `{other_label}`): {line}",
                        ms / other_ms
                    );
                    regressed = true;
                }
            }
        }
        regressed
    }
}

/// A string field of a stored JSON row.
pub fn stored_str<'a>(row: &'a Value, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Value::as_str)
}

/// An unsigned integer field of a stored JSON row.
pub fn stored_u64(row: &Value, key: &str) -> Option<u64> {
    row.get(key).and_then(Value::as_u64)
}

/// A numeric field of a stored JSON row (`NaN` when absent).
pub fn stored_f64(row: &Value, key: &str) -> f64 {
    row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The `results` array of a run: one JSON object per measurement.
pub fn results_value<T: serde::Serialize>(results: &[T]) -> (String, Value) {
    (
        "results".to_string(),
        Value::Arr(
            results
                .iter()
                .map(serde::Serialize::to_json_value)
                .collect(),
        ),
    )
}
