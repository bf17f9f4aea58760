#!/usr/bin/env python3
"""Symbolize and rank the samples written by sampler.so.

usage: report.py BINARY SAMPLES [--groups] [--threads]

SAMPLES is the file named by SAMPLER_OUT (load-base-relative PCs of the
main binary, each with the id of the thread it interrupted);
`--threads` reports the driver thread (the process's first) and the
other threads (workers, reactor, agents) separately, each as a share
of its own samples. SAMPLES.raw beside it holds absolute PCs and the memory
map and is used to attribute the samples that fell outside the binary
(libc's malloc/free/memmove, the kernel) to the nearest preceding
dynamic symbol. BINARY must carry debug info
(CARGO_PROFILE_RELEASE_DEBUG=1); inlined frames are expanded with
`addr2line -i`, so a sample counts for every function on its inlined
stack when grouping and for its outermost and innermost frame in the
two rankings.
"""
import bisect
import collections
import re
import subprocess
import sys

GROUPS = [
    ("trace export", r"chrome::|json::|write_json_string"),
    # The textual front door, stage by stage: parsing (with the label
    # interning it does), lint admission (the borrowed view, its
    # columns on the workload, the per-datum index) and what the run
    # spends handing events to the recorder.
    ("wdl parse", r"wdl::|Interner|label::Label::shared"),
    ("lint", r"analyze::|verify::|DatumIndex|LintView|LintColumns|lint_bundle"),
    ("recording", r"TraceBuffer|Recorder::record|RecorderHandle::record|to_events"),
    ("stream transport", r"runtime::stream::|Stream(Send|Recv|Writer|Reader)|release_stream_successors"),
    ("allocator (in-binary side)", r"__rust_alloc|__rust_dealloc|__rust_realloc|__rdl_|alloc::alloc|::alloc::Counting"),
    ("hashing", r"hashbrown|SipHasher|sip::|hash_one|IdHasher|BuildHasher|core::hash"),
    ("BTreeMap/BTreeSet", r"btree"),
    # Local executor. The mutex and clock rows come first: their fast
    # paths inline into whatever takes the lock or the timestamp, and the
    # question there is what the locking costs, not who asked for it.
    ("futex lock/unlock (in-binary side)", r"sys::sync::mutex|sys::pal::unix::futex|Mutex<.*>::(lock|try_lock)|MutexGuard|Condvar"),
    ("clock", r"Instant::now|Instant::elapsed|Timespec|clock_gettime|now_us"),
    ("value cells/liveness", r"value_cell::|local::record::|CellRef|DatumCells|publish_outputs|Shared::release|local::(Value|Live)\w+|local::GraphState::"),
    ("access processor + graph", r"dag::access::|dag::graph::|dag::ready::|dag::spec::|dag::inline_vec::|dag::seg_vec::"),
    ("dispatch queues", r"crossbeam::deque|sleeper::|find_task|steal_one|wake_workers|inject_ready|local::admission::|ResourcePool|Demand|try_admit|local::client::"),
    ("placement (scheduler, can_host, satisfies)", r"scheduler::|can_host|NodeCapacity::satisfies|is_subset"),
    ("event queue", r"queue::|BinaryHeap"),
    ("dislib kernels", r"dislib::"),
    ("agents + storage", r"continuum_agents::|continuum_storage::"),
    ("benchmark workload code", r"continuum_benchmark::workloads::"),
    ("outside the binary", r"^\?\?$"),
]


def read_samples(samples):
    """The sampled PCs, the thread id of each (None in files written
    before ids were recorded) and the process id from the header."""
    addrs, tids, pid = [], [], None
    for line in open(samples):
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "#":
            pid = int(fields[2]) if fields[1:2] == ["pid"] else pid
            continue
        addrs.append(fields[0])
        tids.append(int(fields[1]) if len(fields) > 1 else None)
    return addrs, tids, pid


def stacks(binary, addrs):
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + addrs,
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result, frames, i = [], [], 0
    while i < len(out):
        if out[i].startswith("0x"):
            if frames:
                result.append(frames)
            frames, i = [], i + 1
            continue
        frames.append(re.sub(r"::h[0-9a-f]{16}$", "", out[i]))
        i += 2
    if frames:
        result.append(frames)
    return result


def outside(raw):
    """Counts of samples outside the main binary, by nearest libc symbol."""
    pcs, maps = [], []
    for line in open(raw):
        if line.startswith("MAP "):
            f = line[4:].split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
        else:
            pcs.append(int(line.split()[0], 16))
    libc = [m for m in maps if "libc.so" in m[3]]
    counts = collections.Counter()
    if not libc:
        return counts, len(pcs)
    base = min(m[0] - m[2] for m in libc)
    syms = []
    for line in subprocess.run(["nm", "-D", "--defined-only", libc[0][3]],
                               capture_output=True, text=True).stdout.splitlines():
        p = line.split()
        if len(p) == 3:
            syms.append((int(p[0], 16), p[2].split("@")[0]))
    syms.sort()
    starts = [a for a, _ in syms]
    for pc in pcs:
        m = next((m for m in maps if m[0] <= pc < m[1]), None)
        if m is None:
            counts["<kernel/unmapped>"] += 1
        elif "libc.so" in m[3]:
            counts["libc: near " + syms[bisect.bisect_right(starts, pc - base) - 1][1]] += 1
        elif m is not maps[0] and m[3] != maps[0][3]:
            counts[m[3] or "<anon>"] += 1
    return counts, len(pcs)


def rank(all_stacks, groups):
    n = len(all_stacks)
    if groups:
        c = collections.Counter()
        for st in all_stacks:
            label = "other (engine, access processor, source)"
            for name, pattern in GROUPS:
                if any(re.search(pattern, frame) for frame in st):
                    label = name
                    break
            c[label] += 1
        for k, v in c.most_common():
            print(f"{100 * v / n:5.1f}%  {k}")
    else:
        for title, pick in (("outermost (non-inlined) function", -1), ("innermost inlined frame", 0)):
            print(f"== {title} ==")
            c = collections.Counter(st[pick] for st in all_stacks)
            for k, v in c.most_common(30):
                print(f"{100 * v / n:5.1f}%  {k[:140]}")


def main():
    binary, samples = sys.argv[1], sys.argv[2]
    addrs, tids, pid = read_samples(samples)
    all_stacks = stacks(binary, addrs)
    groups = "--groups" in sys.argv
    if "--threads" in sys.argv:
        if pid is None or None in tids:
            sys.exit("--threads needs samples with thread ids (rebuild sampler.so)")
        driver = [st for st, tid in zip(all_stacks, tids) if tid == pid]
        others = [st for st, tid in zip(all_stacks, tids) if tid != pid]
        threads = len(set(tids) - {pid})
        for title, part in ((f"driver thread (tid {pid})", driver),
                            (f"other threads ({threads}: workers, reactor, ...)", others)):
            print(f"#### {title}: {len(part)} samples, "
                  f"{100 * len(part) / max(len(all_stacks), 1):.1f}% of the process")
            if part:
                rank(part, groups)
    else:
        rank(all_stacks, groups)
    n = len(all_stacks)
    try:
        counts, total = outside(samples + ".raw")
        print("== outside the binary (nearest dynamic symbol) ==")
        for k, v in counts.most_common(8):
            print(f"{100 * v / total:5.1f}%  {k}")
        if any("__nss_database_lookup" in k for k in counts):
            # Established on fog_storage: the bucket went 27.5 % -> 0.6 %
            # when the one 64 KiB copy per value was removed.
            print("note: this image's libc is stripped; \"near __nss_database_lookup\" "
                  "is the memmove/memcpy family, not NSS")
    except FileNotFoundError:
        pass
    print(n, "samples")


if __name__ == "__main__":
    main()
