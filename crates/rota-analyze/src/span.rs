//! Source spans: resolving a dotted spec path (`resources[1].end`,
//! `computation.actors[0].actions[2]`) to a line/column in the raw
//! spec text, so diagnostics can point into the file the user wrote.
//!
//! `rota_obs::Json` does not retain offsets, so the path is followed
//! through the source with the one JSON lexer, [`Reader`]: into each
//! named member or element, skipping the values before it, and the
//! reader's offset is where the value starts. A path is only resolved
//! in text `SpecModel::from_json` has accepted, so the reader's
//! strictness refuses nothing there.

use rota_obs::json::{Kind, Reader};

/// A resolved location in the spec source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loc {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the value the path names, in characters, so
    /// a caret padded with `column - 1` spaces stands under it.
    pub column: usize,
    /// The full text of that line (without its newline).
    pub text: String,
}

/// One step of a spec path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Key(String),
    Index(usize),
}

fn parse_path(path: &str) -> Option<Vec<Step>> {
    let mut steps = Vec::new();
    for segment in path.split('.') {
        if segment.is_empty() {
            return None;
        }
        let (key, rest) = match segment.find('[') {
            Some(i) => (&segment[..i], &segment[i..]),
            None => (segment, ""),
        };
        if !key.is_empty() {
            steps.push(Step::Key(key.to_string()));
        }
        let mut rest = rest;
        while let Some(inner) = rest.strip_prefix('[') {
            let close = inner.find(']')?;
            steps.push(Step::Index(inner[..close].parse().ok()?));
            rest = &inner[close + 1..];
        }
        if !rest.is_empty() {
            return None;
        }
    }
    Some(steps)
}

/// With `reader` at a value, moves it to the start of the member or
/// element `step` names; `None` when the value has none.
fn descend(reader: &mut Reader<'_>, step: &Step) -> Option<()> {
    match step {
        Step::Key(key) => {
            if reader.kind().ok()? != Kind::Obj {
                return None;
            }
            let mut next = reader.object().ok()?;
            while let Some(name) = next {
                if name == key.as_str() {
                    return Some(());
                }
                reader.skip().ok()?;
                next = reader.next_key().ok()?;
            }
            None
        }
        Step::Index(i) => {
            if reader.kind().ok()? != Kind::Arr {
                return None;
            }
            let mut more = reader.array().ok()?;
            for _ in 0..*i {
                if !more {
                    return None;
                }
                reader.skip().ok()?;
                more = reader.next_item().ok()?;
            }
            more.then_some(())
        }
    }
}

/// Resolves `path` against the raw spec `text`. Returns `None` when
/// the path is empty, malformed, or absent from the document.
pub fn locate(text: &str, path: &str) -> Option<Loc> {
    if path.is_empty() {
        return None;
    }
    let steps = parse_path(path)?;
    let mut reader = Reader::new(text);
    for step in &steps {
        descend(&mut reader, step)?;
    }
    reader.kind().ok()?;
    let offset = reader.offset();
    let line_start = text[..offset].rfind('\n').map_or(0, |i| i + 1);
    let line_end = text[offset..].find('\n').map_or(text.len(), |i| offset + i);
    Some(Loc {
        line: text[..offset].matches('\n').count() + 1,
        column: text[line_start..offset].chars().count() + 1,
        text: text[line_start..line_end].trim_end().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "resources": [
    { "kind": "cpu", "location": "l1", "rate": 4, "start": 0, "end": 20 },
    { "kind": "network", "from": "l1", "to": "l2", "rate": 2, "start": 9, "end": 3 }
  ],
  "computation": {
    "name": "job",
    "actors": [ { "name": "a", "actions": [ { "do": "ready" } ] } ]
  }
}"#;

    #[test]
    fn locates_nested_fields() {
        let loc = locate(DOC, "resources[1].end").unwrap();
        assert_eq!(loc.line, 4);
        assert!(loc.text.contains("\"end\": 3"));
        assert_eq!(&loc.text[loc.column - 1..loc.column], "3");

        let loc = locate(DOC, "computation.actors[0].actions[0].do").unwrap();
        assert_eq!(loc.line, 8);
        assert_eq!(&loc.text[loc.column - 1..loc.column], "\"");
    }

    #[test]
    fn locates_whole_elements() {
        let loc = locate(DOC, "resources[0]").unwrap();
        assert_eq!(loc.line, 3);
        assert_eq!(&loc.text[loc.column - 1..loc.column], "{");
    }

    #[test]
    fn missing_paths_resolve_to_none() {
        assert!(locate(DOC, "resources[7]").is_none());
        assert!(locate(DOC, "computation.bogus").is_none());
        assert!(locate(DOC, "").is_none());
        assert!(locate(DOC, "resources[x]").is_none());
    }

    #[test]
    fn strings_with_escapes_are_skipped_correctly() {
        let doc = r#"{ "a": "quote \" brace } bracket ]", "b": 7 }"#;
        let loc = locate(doc, "b").unwrap();
        assert_eq!(loc.line, 1);
        assert_eq!(&doc[loc.column - 1..loc.column], "7");
    }
}
