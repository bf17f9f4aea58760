//! Mutation fuzz of the JSON parser: seeded byte and token mutations of
//! two documents shaped like what the workspace reads — a Chrome trace
//! export (escapes, span-context args, counters) and a lint bundle
//! (nested objects, nulls, large integers) — fed to `json::parse` and
//! `json::parse_array_elements`. For every mutant:
//!
//! * neither function panics;
//! * the two agree: the same error, or `parse`'s array is the elements
//!   `parse_array_elements` handed over (a scalar document is returned
//!   by both, with no element handed over);
//! * an accepted value keeps the model's invariants (an `I64` is
//!   negative), and what `Value::write` makes of it parses back to the
//!   same value — up to the writer's documented number forms — and
//!   writes the same bytes again.
//!
//! What a run of this fuzz found wrong is pinned at the end, beside a
//! nesting depth no mutant of these fixtures reaches.

use serde::json::{self, ParseError, Value};

const MUTANTS_PER_FIXTURE: usize = 12_000;

/// A Chrome export: metadata rows, a span with every escape and a full
/// span context, an instant on a packed remote `tid`, counters.
const TRACE: &str = r#"[{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"sim nodes"}},{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"node 0"}},{"name":"q\"uote \\ \n\r\t\u0001\u001f h\u00e9llo \u2713","ph":"X","ts":100,"pid":2,"tid":0,"dur":18446744073709551614,"cat":"executing","args":{"ctx_agent":4294967295,"ctx_parent":12345,"ctx_span":18446744073709551615,"ctx_trace":7}},{"name":"offload:sum","ph":"X","ts":101,"pid":4,"tid":3,"dur":49,"cat":"offloading","args":{"ctx_agent":3,"ctx_span":99,"ctx_trace":7}},{"name":"t","ph":"i","ts":150,"pid":5,"tid":4294901759,"cat":"committed","s":"t"},{"name":"queue_depth","ph":"C","ts":150,"pid":1,"tid":0,"args":{"value":2.0}},{"name":"transfer_bytes","ph":"C","ts":150,"pid":1,"tid":0,"args":{"value":-0.00725}},{"name":"stream_bytes","ph":"C","ts":151,"pid":1,"tid":0,"args":{"value":1e15}}]"#;

/// A lint bundle: a graph of nested task records, platform nodes with
/// `i64::MAX` disk, constraints with nulls, float weights.
const BUNDLE: &str = r#"{"graph":{"nodes":[{"id":0,"spec":{"name":"split","params":[{"data":0,"direction":"Out"}],"group":null},"preds":[],"succs":[1,2],"streams":null,"consumed":[],"produced":[{"data":0,"version":1}]},{"id":1,"spec":{"name":"work \"a\"","params":[{"data":0,"direction":"In"},{"data":1,"direction":"InOut"}],"group":"row\\0"},"preds":[0],"succs":[],"streams":[{"data":1,"elems":-1}],"consumed":[{"data":0,"version":1}],"produced":[{"data":1,"version":2}]}]},"data_names":["in\u0000put","out"],"nodes":[{"name":"mn4-0","capacity":{"cores":48,"memory_mb":96000,"disk_mb":9223372036854775807,"gpus":0,"software":["mpi"],"arch":"x86_64"}}],"constraints":[{"compute_units":1,"memory_mb":0,"disk_mb":0,"gpus":0,"software":[],"arch":null,"nodes":1}],"weights":[1.0,0.25,12.5,1e-7],"initial_data":[0],"streams":[],"ok":true,"no":false}"#;

/// Replacements for a number or a literal.
const NUMBERS: [&str; 24] = [
    "0",
    "-0",
    "00",
    "-00",
    "1",
    "-1",
    "0.5",
    "-0.0",
    "2.0",
    "1e15",
    "-1e15",
    "1e400",
    "-1e400",
    "1e-400",
    "1.7976931348623157e308",
    "9223372036854775807",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "null",
    "[]",
    "{}",
];

/// Replacements for a string: escapes the parser decodes, and ones it
/// must refuse.
const STRINGS: [&str; 12] = [
    r#""""#,
    r#""name""#,
    r#""\ud800""#,
    r#""\udc00\ud800""#,
    r#""\u00""#,
    r#""\uZZZZ""#,
    r#""\/\b\f""#,
    r#""\x""#,
    r#""é\n""#,
    r#""\u0000""#,
    r#""\"""#,
    r#""\\""#,
];

/// Bytes that matter to the JSON grammar.
const GRAMMAR: &[u8] = b"{}[]:,\"\\-+.0123456789eEnutrfals ";

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte ranges of the JSON tokens in `text`: strings with their quotes,
/// numbers and literals, single punctuation.
fn tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let start = i;
        match text[i] {
            b'"' => {
                i += 1;
                while i < text.len() && text[i] != b'"' {
                    i += if text[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(text.len());
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                while i < text.len()
                    && matches!(text[i], b'-' | b'+' | b'.' | b'0'..=b'9' | b'a'..=b'z' | b'E')
                {
                    i += 1;
                }
            }
            _ => i += 1,
        }
        out.push((start, i));
    }
    out
}

/// One to three byte or token mutations of `text`.
fn mutate(rng: &mut Rng, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        let len = (1 + rng.below(8)).min(bytes.len() - at);
        match rng.below(8) {
            0 => bytes[at] = rng.next() as u8,
            1 => bytes[at] = GRAMMAR[rng.below(GRAMMAR.len())],
            2 => {
                bytes.drain(at..at + len);
            }
            3 => {
                let copy = bytes[at..at + len].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let spans = tokens(&bytes);
                let pick = |rng: &mut Rng, starting: &dyn Fn(u8) -> bool| {
                    let of_kind: Vec<_> =
                        spans.iter().filter(|(s, _)| starting(bytes[*s])).collect();
                    let all = if of_kind.is_empty() {
                        spans.iter().collect()
                    } else {
                        of_kind
                    };
                    *all[rng.below(all.len())]
                };
                let (s, e) = pick(rng, &|_| true);
                let ((s, e), replacement): ((usize, usize), Vec<u8>) = match rng.below(5) {
                    0 => (
                        pick(rng, &|b| b == b'-' || b.is_ascii_digit()),
                        NUMBERS[rng.below(NUMBERS.len())].into(),
                    ),
                    1 => (
                        pick(rng, &|b| b == b'"'),
                        STRINGS[rng.below(STRINGS.len())].into(),
                    ),
                    2 => {
                        let (s2, e2) = pick(rng, &|_| true);
                        ((s, e), bytes[s2..e2].to_vec())
                    }
                    3 => ((s, e), Vec::new()),
                    _ => ((s, e), [&bytes[s..e], &bytes[s..e]].concat()),
                };
                bytes.splice(s..e, replacement);
            }
        }
    }
    bytes
}

/// Whether `v` keeps the model's invariants: an `I64` is negative.
fn well_formed(v: &Value) -> bool {
    match v {
        Value::I64(n) => *n < 0,
        Value::Arr(items) => items.iter().all(well_formed),
        Value::Obj(pairs) => pairs.iter().all(|(_, v)| well_formed(v)),
        _ => true,
    }
}

/// Whether `back`, read from what the writer made of `v`, is `v`: the
/// same text, structure and numbers, where a non-finite float comes
/// back as `null` and an integral float of magnitude 1e15 or more as an
/// integer of the same `f64` value (the writer's documented forms).
fn same(v: &Value, back: &Value) -> bool {
    match (v, back) {
        (Value::F64(x), Value::Null) => !x.is_finite(),
        (Value::F64(x), Value::U64(n)) => x.fract() == 0.0 && x.abs() >= 1e15 && *n as f64 == *x,
        (Value::F64(x), Value::I64(n)) => x.fract() == 0.0 && x.abs() >= 1e15 && *n as f64 == *x,
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(a), Value::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Value::Obj(a), Value::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => v == back,
    }
}

/// Runs one document through both entry points and the writer; the
/// failure as text, `None` when every check holds.
fn check(text: &str) -> Option<String> {
    let whole = json::parse(text);
    let mut items = Vec::new();
    let streamed = json::parse_array_elements(text, |item| items.push(item));
    let value = match (whole, streamed) {
        (Err(a), Err(b)) if a == b => return None,
        (Ok(v), Ok(None)) if v == Value::Arr(items.clone()) => v,
        (Ok(v), Ok(Some(s))) if v == s && items.is_empty() => v,
        (whole, streamed) => {
            return Some(format!(
                "the entry points disagree: {whole:?} vs {streamed:?} after {items:?}"
            ))
        }
    };
    if !well_formed(&value) {
        return Some(format!("breaks an invariant: {value:?}"));
    }
    let mut written = String::new();
    value.write(&mut written);
    let back = match json::parse(&written) {
        Ok(back) => back,
        Err(e) => return Some(format!("the writer's output is refused: {e}: {written}")),
    };
    if !same(&value, &back) {
        return Some(format!("{value:?} came back as {back:?}"));
    }
    let mut again = String::new();
    back.write(&mut again);
    (again != written).then(|| format!("bytes moved: {written} then {again}"))
}

#[test]
fn mutated_documents_agree_and_round_trip() {
    for (fixture, seed) in [(TRACE, 0x7ace_u64), (BUNDLE, 0xb0d1e)] {
        assert_eq!(check(fixture), None, "the fixture itself");
        let mut rng = Rng(seed);
        let mut accepted = 0;
        for case in 0..MUTANTS_PER_FIXTURE {
            let mutant =
                String::from_utf8_lossy(&mutate(&mut rng, fixture.as_bytes())).into_owned();
            if let Some(failure) = check(&mutant) {
                panic!("mutant {case} of seed {seed:#x}: {failure}\n{mutant}");
            }
            accepted += usize::from(json::parse(&mutant).is_ok());
        }
        // Most mutants break the syntax; enough must survive to test the
        // round trip.
        assert!(
            accepted > MUTANTS_PER_FIXTURE / 20,
            "only {accepted} mutants of seed {seed:#x} accepted"
        );
    }
}

#[test]
fn errors_are_the_same_from_both_entry_points() {
    for text in [
        "",
        "[",
        "[1,",
        "[1 2]",
        "{\"a\":}",
        "[\"\\x\"]",
        "[1]x",
        "nul",
    ] {
        let whole: ParseError = json::parse(text).unwrap_err();
        let streamed = json::parse_array_elements(text, |_| {}).unwrap_err();
        assert_eq!(whole, streamed, "{text:?}");
    }
}

/// `-0` parsed as `I64(0)`, which the writer gives back as `0`, a
/// `U64`: the value changed on a round trip (mutant 241 of the trace).
#[test]
fn negative_zero_is_a_zero_u64() {
    for text in ["-0", "-00", "[-0]"] {
        assert_eq!(check(text), None, "{text}");
    }
    assert_eq!(json::parse("-0"), Ok(Value::U64(0)));
    assert_eq!(json::parse("-1"), Ok(Value::I64(-1)));
}

/// Each array or object level is a frame of the recursive descent:
/// nesting is refused past 128 levels, by both entry points at the same
/// offset, instead of overflowing the stack.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert_eq!(check(&nested(128)), None);
    let objects = format!("{}1", "{\"a\":".repeat(200));
    for (text, offset) in [
        (nested(129), 128),
        ("[".repeat(1 << 20), 128),
        (objects, 5 * 128),
    ] {
        let e = json::parse(&text).unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (offset, "nesting too deep"));
        assert_eq!(check(&text), None);
    }
}
