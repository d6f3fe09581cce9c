//! Round-trip and escaping tests for `gp_bench::Json`, the hand-rolled
//! serializer behind every `results/BENCH_*.json` artifact and the
//! `gp-service` wire protocol.
//!
//! The recursive-descent reader that used to live inside this file was
//! promoted to the library as [`Json::parse`] (it now decodes service
//! requests, so encode and decode round-trip through one audited
//! implementation). These tests exercise the library version: render →
//! parse → compare. That catches the failure class string-equality tests
//! miss — output that *looks* plausible but is not actually valid JSON
//! (bad escapes, bare control characters, `NaN` literals).

use gp_bench::Json;
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Parse, failing the test with context on malformed input.
fn parse(s: &str) -> Json {
    Json::parse(s).unwrap_or_else(|e| panic!("invalid JSON {s:?}: {e}"))
}

#[test]
fn strings_with_every_escape_class_round_trip() {
    let cases = [
        "plain",
        "",
        "quote \" backslash \\ both \\\"",
        "newline\nand\ttab",
        "carriage\rreturn",
        "null byte \u{0} and unit sep \u{1f}",
        "bell \u{7} backspace \u{8} formfeed \u{c}",
        "unicode: célérité — ∀x∈S 🚀",
        "trailing backslash \\",
        "\\n is not a newline",
    ];
    for s in cases {
        let rendered = Json::Str(s.to_string()).render();
        assert_eq!(
            parse(&rendered),
            Json::Str(s.to_string()),
            "round-trip failed for {s:?} (rendered {rendered:?})"
        );
    }
}

#[test]
fn control_characters_never_appear_bare() {
    // JSON forbids raw U+0000..U+001F inside strings; everything in that
    // range must leave the renderer escaped.
    let all_controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    let rendered = Json::Str(all_controls.clone()).render();
    let inner = &rendered[1..rendered.len() - 1];
    assert!(
        inner.chars().all(|c| (c as u32) >= 0x20),
        "bare control char in rendered string {rendered:?}"
    );
    assert_eq!(parse(&rendered), Json::Str(all_controls));
}

#[test]
fn object_keys_are_escaped_like_values() {
    let j = Json::obj().field("key \"with\"\nnasties\u{1}", 1u64);
    assert_eq!(
        parse(&j.render()),
        Json::Obj(vec![("key \"with\"\nnasties\u{1}".into(), Json::Num(1.0))])
    );
}

#[test]
fn non_finite_numbers_render_as_null() {
    // `NaN`/`Infinity` are not JSON; the renderer documents them as null.
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Num(x).render(), "null");
        assert_eq!(parse(&Json::Num(x).render()), Json::Null);
    }
    // ...including nested inside arrays/objects.
    let j = Json::obj().field("series", Json::Arr(vec![Json::Num(f64::NAN)]));
    assert_eq!(j.render(), r#"{"series":[null]}"#);
}

#[test]
fn integral_rendering_near_the_1e15_cutoff() {
    // Below the cutoff integral values print as integers (no ".0", no
    // exponent) — counter snapshots rely on this.
    assert_eq!(Json::Num(0.0).render(), "0");
    assert_eq!(Json::Num(-0.0).render(), "0");
    assert_eq!(Json::Num(42.0).render(), "42");
    assert_eq!(Json::Num(-7.0).render(), "-7");
    assert_eq!(Json::Num(999_999_999_999_999.0).render(), "999999999999999");
    assert_eq!(
        Json::Num(-999_999_999_999_999.0).render(),
        "-999999999999999"
    );
    // At/above the cutoff the renderer falls back to `Display`, which must
    // still parse to the same value (and f64 `Display` never emits an
    // exponent, so it stays valid JSON).
    for x in [1e15, -1e15, 2f64.powi(53), 1e300] {
        let rendered = Json::Num(x).render();
        assert_eq!(parse(&rendered), Json::Num(x), "cutoff fallback for {x}");
    }
    // Non-integral values keep their fraction on both sides of the cutoff.
    assert_eq!(Json::Num(1.5).render(), "1.5");
    let near = 999_999_999_999_999.5f64;
    assert_eq!(parse(&Json::Num(near).render()), Json::Num(near));
}

#[test]
fn integer_from_impls_round_trip_exactly_within_f64_range() {
    // Every From<integer> impl goes through f64; values up to 2^53 are
    // exact and must come back bit-identical through render+parse.
    for v in [0u64, 1, 1_000_000, (1 << 53) - 1] {
        let rendered = Json::from(v).render();
        assert_eq!(parse(&rendered), Json::Num(v as f64), "u64 {v}");
    }
    for v in [-1i64, -(1 << 53) + 1] {
        let rendered = Json::from(v).render();
        assert_eq!(parse(&rendered), Json::Num(v as f64), "i64 {v}");
    }
}

#[test]
fn nested_structures_round_trip() {
    let j = Json::obj()
        .field("name", "exp \"tele\"\n")
        .field("ok", true)
        .field("none", Json::Null)
        .field(
            "rows",
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a\tb".into()),
                Json::Obj(vec![("k".into(), Json::Bool(false))]),
            ]),
        );
    assert_eq!(parse(&j.render()), j);
}

#[test]
fn raw_fragments_splice_verbatim_inside_objects() {
    // The telemetry bridge relies on Raw: gp_telemetry::Snapshot::to_json
    // output is spliced into the bench Json tree untouched.
    let j = Json::obj().field("metrics", Json::Raw(r#"{"pool.park":3}"#.to_string()));
    let rendered = j.render();
    assert_eq!(rendered, r#"{"metrics":{"pool.park":3}}"#);
    // And the spliced result is still valid JSON end to end — the parser
    // reconstructs it as a structural (non-Raw) value.
    assert_eq!(
        parse(&rendered),
        Json::Obj(vec![(
            "metrics".into(),
            Json::Obj(vec![("pool.park".into(), Json::Num(3.0))])
        )])
    );
}

/// Strategy for arbitrary parseable `Json` trees: every variant except
/// `Raw` (not produced by the parser) and non-finite numbers (documented
/// to render as `null`). Strings draw from a pool covering every escape
/// class, including raw control characters and astral-plane codepoints.
struct JsonTree {
    depth: usize,
}

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => char::from_u32(rng.gen_range(0..0x20)).unwrap(), // control
            1 => '"',
            2 => '\\',
            3 => char::from_u32(rng.gen_range(0x20..0x7f)).unwrap(), // ascii
            4 => '\u{1F680}',                                        // astral
            5 => 'é',
            6 => '∀',
            _ => char::from_u32(rng.gen_range(0x20..0x3000)).unwrap(),
        })
        .collect()
}

impl Strategy for JsonTree {
    type Value = Json;

    fn sample(&self, rng: &mut StdRng) -> Json {
        let leaf_only = self.depth == 0;
        match rng.gen_range(0u32..if leaf_only { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            // Mix of integral (the common counter case) and fractional.
            2 => Json::Num(rng.gen_range(-1_000_000i64..1_000_000) as f64),
            3 => Json::Num(rng.gen_range(-1e9..1e9) / 128.0),
            4 => Json::Str(arb_string(rng)),
            5 => {
                let inner = JsonTree {
                    depth: self.depth - 1,
                };
                let n = rng.gen_range(0usize..4);
                Json::Arr((0..n).map(|_| inner.sample(rng)).collect())
            }
            _ => {
                let inner = JsonTree {
                    depth: self.depth - 1,
                };
                let n = rng.gen_range(0usize..4);
                Json::Obj(
                    (0..n)
                        .map(|_| (arb_string(rng).into(), inner.sample(rng)))
                        .collect(),
                )
            }
        }
    }
}

/// The renderer as it was before escaping copied runs of safe bytes:
/// one `char` at a time, every key cloned into a `Json::Str`, numbers
/// through `format!`. Frozen as the byte-identity reference.
fn render_seed(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_seed(item, out);
            }
            out.push(']');
        }
        Json::Raw(s) => out.push_str(s),
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_seed(&Json::Str(k.to_string()), out);
                out.push(':');
                render_seed(v, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn escaping_is_byte_identical_to_the_char_at_a_time_escaper() {
    // Every code point class at every position: runs of safe bytes
    // between escapes, escapes back to back, multi-byte characters next
    // to escapes, and a long run (the lint payload's common case).
    let pieces = [
        "", "a", "é", "🚀", "\"", "\\", "\n", "\t", "\r", "\u{0}", "\u{1f}", "\u{7f}",
    ];
    for a in pieces {
        for b in pieces {
            for c in pieces {
                let s = format!("{a}{b}x{c}{a}");
                let j = Json::Str(s.clone());
                let mut want = String::new();
                render_seed(&j, &mut want);
                assert_eq!(j.render(), want, "{s:?}");
            }
        }
    }
    let long = "container v vector\n\tpush_back v # \"quoted\" \\ é\n".repeat(500);
    let mut want = String::new();
    render_seed(&Json::Str(long.clone()), &mut want);
    assert_eq!(Json::Str(long).render(), want);
}

proptest! {
    #[test]
    fn rendering_is_byte_identical_to_the_seed_renderer(j in JsonTree { depth: 3 }) {
        let mut want = String::new();
        render_seed(&j, &mut want);
        prop_assert_eq!(j.render(), want);
    }

    #[test]
    fn arbitrary_trees_round_trip_through_render_and_parse(
        j in JsonTree { depth: 3 }
    ) {
        let rendered = j.render();
        let back = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced invalid JSON {rendered:?}: {e}"));
        prop_assert_eq!(back, j);
    }

    #[test]
    fn rendering_is_deterministic_and_reparse_is_idempotent(
        j in JsonTree { depth: 3 }
    ) {
        let r1 = j.render();
        let r2 = Json::parse(&r1).unwrap().render();
        // parse(render(j)).render() == render(j): one canonical encoding.
        prop_assert_eq!(r1, r2);
    }
}
