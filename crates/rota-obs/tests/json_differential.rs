//! Differential test of the JSON codec against the parser and writer it
//! replaced (`json_reference`). On random documents — escapes,
//! surrogates, `-0`, exponents, integers of 15, 16 and 17 digits, 2^53
//! and its neighbours, short, long and escaped keys — and on corrupted
//! copies of them, both parsers must return bit-equal values or fail at
//! the same offset with the same message, and both writers must emit the
//! same bytes. The pull reader, `Json::parse`'s lexer, must skip and
//! transcribe each document with the parser's outcome.

mod json_reference;

use json_reference::Value;
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rota_obs::json::{Key, Reader};
use rota_obs::Json;

/// Whether the live value equals the reference one, numbers compared
/// bit for bit (so `-0` is not `0`).
fn same(live: &Json, reference: &Value) -> bool {
    match (live, reference) {
        (Json::Null, Value::Null) => true,
        (Json::Bool(a), Value::Bool(b)) => a == b,
        (Json::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
        (Json::Str(a), Value::Str(b)) => a == b,
        (Json::Arr(a), Value::Arr(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (Json::Obj(a), Value::Obj(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, va), (kb, vb))| ka.as_str() == kb && same(va, vb))
        }
        _ => false,
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// Numbers as written: every integer width around the parser's exact
/// range (15 digits) and `f64`'s (2^53), signs, zeros, fractions and
/// exponents, and the malformed forms.
fn number(rng: &mut TestRng) -> String {
    let digits = |rng: &mut TestRng, n: usize| {
        let mut text = String::new();
        text.push(char::from(b'1' + rng.below(9) as u8));
        for _ in 1..n {
            text.push(char::from(b'0' + rng.below(10) as u8));
        }
        text
    };
    let sign = if rng.below(3) == 0 { "-" } else { "" };
    match rng.below(8) {
        0 => format!("{sign}{}", rng.below(1_000)),
        1 => {
            let width = pick(rng, &[14, 15, 16, 17, 18, 20, 25]);
            format!("{sign}{}", digits(rng, width))
        }
        2 => format!(
            "{sign}{}",
            pick(
                rng,
                &[
                    "0",
                    "999999999999999",
                    "1000000000000000",
                    "9007199254740991",
                    "9007199254740992",
                    "9007199254740993",
                    "18446744073709551615",
                    "18446744073709551616",
                ],
            )
        ),
        3 => {
            let width = 1 + rng.below(17) as usize;
            format!("{sign}{}.{}", rng.below(100), digits(rng, width))
        }
        4 => {
            format!(
                "{sign}{}{}{}{}",
                rng.below(20),
                pick(rng, &["", ".5", ".25"]),
                pick(rng, &["e", "E"]),
                pick(rng, &["", "+", "-"])
            ) + &rng.below(400).to_string()
        }
        5 => pick(
            rng,
            &[
                "-0", "-0.0", "0e0", "-0E-0", "1e309", "-1e309", "5e-324", "1e-400",
            ],
        )
        .to_string(),
        6 => pick(
            rng,
            &[
                "01", "-", "1.", "1e", "1e+", "-a", ".5", "1.e2", "00", "-01",
            ],
        )
        .to_string(),
        _ => format!("{sign}{}", digits(rng, 15)),
    }
}

/// One piece of string content: plain and multi-byte text, every
/// escape form (good and bad), surrogates and raw control bytes.
fn string_piece(rng: &mut TestRng) -> String {
    match rng.below(8) {
        0 => pick(
            rng,
            &[
                "a",
                "kind",
                "l0",
                "plain text",
                " ",
                "~",
                "\u{7f}",
                "'",
                "/",
            ],
        )
        .to_string(),
        1 => pick(rng, &["é", "€", "😀", "𝄞", "\u{fffd}", "ß"]).to_string(),
        2 => pick(
            rng,
            &["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"],
        )
        .to_string(),
        3 => pick(
            rng,
            &[
                "\\u0041", "\\u00e9", "\\u20AC", "\\uffff", "\\u0000", "\\u001f", "\\u+123",
            ],
        )
        .to_string(),
        4 => pick(
            rng,
            &[
                "\\ud83d\\ude00",
                "\\uD834\\uDD1E",
                "\\ud83d",
                "\\ude00",
                "\\ud83d\\u0041",
            ],
        )
        .to_string(),
        5 => pick(
            rng,
            &[
                "\\",
                "\\x",
                "\\u12",
                "\\uzzzz",
                "\\u12é",
                "\\ud83dx",
                "\\ud83d\\",
            ],
        )
        .to_string(),
        6 => char::from_u32(rng.below(0x20) as u32)
            .expect("ascii")
            .to_string(),
        _ => "x".repeat(1 + rng.below(30) as usize),
    }
}

fn string(rng: &mut TestRng) -> String {
    let mut text = String::from("\"");
    for _ in 0..rng.below(5) {
        text.push_str(&string_piece(rng));
    }
    text.push('"');
    text
}

/// A key: mostly clean, short or long (past the 22 bytes a key holds
/// inline), sometimes with escapes or repeated.
fn key(rng: &mut TestRng) -> String {
    match rng.below(6) {
        0 | 1 => format!(
            "\"{}\"",
            pick(rng, &["op", "kind", "rate", "start", "end", "ok"])
        ),
        2 => format!("\"k{}\"", rng.below(1_000)),
        3 => format!("\"{}\"", "long-key-".repeat(1 + rng.below(4) as usize)),
        4 => format!("\"{}\"", "ü".repeat(10 + rng.below(3) as usize)),
        _ => string(rng),
    }
}

/// Whitespace between tokens, usually none.
fn ws(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", "", " ", "\n", " \t\r\n "])
}

fn value(rng: &mut TestRng, depth: u32) -> String {
    let nested = if depth < 4 { 7 } else { 5 };
    match rng.below(nested) {
        0 => pick(rng, &["null", "true", "false", "nul", "tru", "fals"]).to_string(),
        1 | 2 => number(rng),
        3 | 4 => string(rng),
        5 => {
            let items: Vec<String> = (0..rng.below(6))
                .map(|_| format!("{}{}{}", ws(rng), value(rng, depth + 1), ws(rng)))
                .collect();
            format!("[{}{}]", items.join(","), ws(rng))
        }
        _ => {
            let members: Vec<String> = (0..rng.below(7))
                .map(|_| {
                    format!(
                        "{}{}{}:{}{}",
                        ws(rng),
                        key(rng),
                        ws(rng),
                        ws(rng),
                        value(rng, depth + 1)
                    )
                })
                .collect();
            format!("{{{}{}}}", members.join(","), ws(rng))
        }
    }
}

/// Cuts, drops, duplicates or replaces one character of `doc`.
fn corrupt(rng: &mut TestRng, doc: &str) -> String {
    let chars: Vec<char> = doc.chars().collect();
    if chars.is_empty() {
        return String::from(pick(rng, &["", " ", "{", "\""]));
    }
    let at = rng.below(chars.len() as u64) as usize;
    let mut out: Vec<char> = chars.clone();
    match rng.below(4) {
        0 => out.truncate(at),
        1 => {
            out.remove(at);
        }
        2 => out.insert(at, chars[rng.below(chars.len() as u64) as usize]),
        _ => {
            out[at] = pick(
                rng,
                &[
                    '"', '\\', ',', ':', '}', ']', '{', '[', '0', '-', 'e', '\u{1}',
                ],
            )
        }
    }
    out.into_iter().collect()
}

/// A random document; one in three is corrupted.
struct Document;

impl Strategy for Document {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        let doc = format!("{}{}{}", ws(rng), value(rng, 0), ws(rng));
        if rng.below(3) == 0 {
            corrupt(rng, &doc)
        } else {
            doc
        }
    }
}

/// Numbers to write, as values rather than text: the writer's integer
/// range edge (10^15), `-0`, fractions, `f64` extremes and non-finite
/// values.
const WRITTEN_NUMBERS: [f64; 21] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    -7.0,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1e15,
    -1e15,
    9_007_199_254_740_993.0,
    18_446_744_073_709_551_615.0,
    0.1,
    -2.5,
    1e-7,
    123_456.789,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// The keys a built document uses: literal (borrowed) ones, and copies
/// short enough to sit inline or long enough to be boxed.
const LITERAL_KEYS: [&str; 4] = [
    "op",
    "kind",
    "a key longer than twenty-two bytes",
    "é\n\"q\"",
];

/// A random document built as a value, with the same value built for
/// the reference writer.
fn built(rng: &mut TestRng, depth: u32) -> (Json, Value) {
    match rng.below(if depth < 3 { 6 } else { 4 }) {
        0 => (Json::Bool(true), Value::Bool(true)),
        1 => {
            let n = pick(rng, &WRITTEN_NUMBERS);
            let n = if rng.below(2) == 0 {
                n
            } else {
                rng.below(1 << 60) as f64 - (1u64 << 59) as f64
            };
            (Json::Num(n), Value::Num(n))
        }
        2 | 3 => {
            let text: String = (0..rng.below(4)).map(|_| string_piece(rng)).collect();
            (Json::Str(text.clone()), Value::Str(text))
        }
        4 => {
            let (live, reference) = (0..rng.below(5)).map(|_| built(rng, depth + 1)).unzip();
            (Json::Arr(live), Value::Arr(reference))
        }
        _ => {
            let mut live = Vec::new();
            let mut reference = Vec::new();
            for _ in 0..rng.below(5) {
                let (text, key) = match rng.below(3) {
                    0 => {
                        let text = pick(rng, &LITERAL_KEYS);
                        (text.to_string(), Key::from(text))
                    }
                    1 => {
                        let text = format!("k{}", "x".repeat(rng.below(40) as usize));
                        (text.clone(), Key::new(&text))
                    }
                    _ => {
                        let text: String = (0..rng.below(3)).map(|_| string_piece(rng)).collect();
                        (text.clone(), Key::from(text))
                    }
                };
                let (value_live, value_reference) = built(rng, depth + 1);
                live.push((key, value_live));
                reference.push((text, value_reference));
            }
            (Json::Obj(live), Value::Obj(reference))
        }
    }
}

struct Built;

impl Strategy for Built {
    type Value = (Json, Value);

    fn new_value(&self, rng: &mut TestRng) -> (Json, Value) {
        built(rng, 0)
    }
}

fn compact(value: &Value) -> String {
    let mut out = String::new();
    value.write_compact(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6_000))]

    #[test]
    fn parser_and_writer_match_the_reference(doc in Document) {
        match (Json::parse(&doc), Value::parse(&doc)) {
            (Ok(live), Ok(reference)) => {
                prop_assert!(same(&live, &reference), "{doc:?}: {live:?} vs {reference:?}");
                prop_assert_eq!(live.to_string(), compact(&reference), "{:?}", doc);
                prop_assert_eq!(live.pretty(), reference.pretty(), "{:?}", doc);
            }
            (live, reference) => {
                prop_assert_eq!(live.err(), reference.err(), "{:?}", doc);
            }
        }
    }

    /// The pull reader skips and transcribes each document with the
    /// outcome the tree parser has: the same error, or the compact
    /// text of the same tree.
    #[test]
    fn reader_skips_and_transcribes_as_the_parser_parses(doc in Document) {
        let tree = Json::parse(&doc);
        let mut reader = Reader::new(&doc);
        let skipped = reader.skip().and_then(|()| reader.finish());
        prop_assert_eq!(skipped.err(), tree.as_ref().err().cloned(), "{:?}", doc);
        let mut text = String::new();
        let mut reader = Reader::new(&doc);
        let copied = reader.compact(&mut text).and_then(|()| reader.finish());
        match tree {
            Ok(tree) => {
                prop_assert!(copied.is_ok(), "{:?}", doc);
                prop_assert_eq!(text, tree.to_string(), "{:?}", doc);
            }
            Err(err) => prop_assert_eq!(copied.err(), Some(err), "{:?}", doc),
        }
    }

    #[test]
    fn writer_matches_the_reference_on_built_documents(pair in Built) {
        let (live, reference) = pair;
        let mut out = String::new();
        live.write_compact(&mut out);
        prop_assert_eq!(&out, &compact(&reference));
        prop_assert_eq!(live.pretty(), reference.pretty());
    }
}

/// The generator reaches values and every error the parser reports, so
/// a passing run is not a vacuous one.
#[test]
fn generator_covers_values_and_each_error() {
    let mut rng = TestRng::from_seed(7);
    let mut seen = std::collections::BTreeSet::new();
    let mut widths = std::collections::BTreeSet::new();
    for _ in 0..6_000 {
        let doc = Document.new_value(&mut rng);
        match Value::parse(&doc) {
            Ok(value) => {
                seen.insert("ok".to_string());
                if let Value::Num(n) = value {
                    widths.insert(format!("{}", n.abs()).len());
                }
            }
            Err(e) => {
                seen.insert(e.message);
            }
        }
    }
    for outcome in [
        "ok",
        "unterminated string",
        "invalid escape sequence",
        "raw control character in string",
        "unpaired surrogate",
        "invalid low surrogate",
        "invalid unicode escape",
        "truncated unicode escape",
        "trailing characters after document",
        "invalid number",
        "digits required after decimal point",
        "digits required in exponent",
        "expected `,` or `]` in array",
        "expected `,` or `}` in object",
        "expected `:`",
        "expected `\"`",
        "expected `null`",
        "unexpected end of input",
    ] {
        assert!(
            seen.iter().any(|s| s.starts_with(outcome)),
            "never produced {outcome:?}: {seen:?}"
        );
    }
    for width in [15, 16, 17] {
        assert!(
            widths.contains(&width),
            "no top-level {width}-digit number: {widths:?}"
        );
    }
}
