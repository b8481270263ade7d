//! Source spans: resolving a dotted spec path (`resources[1].end`,
//! `computation.actors[0].actions[2]`) to a line/column in the raw
//! spec text, so diagnostics can point into the file the user wrote.
//!
//! This is a cursor over the original text, not a DOM lookup:
//! `rota_obs::Json` does not retain offsets, so we re-scan the source
//! following the path. The scanner only needs to *skip* values
//! correctly (strings with escapes, nested containers); it never
//! interprets them.

/// A resolved location in the spec source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loc {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the value the path names.
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

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    /// Consumes a JSON string, returning its unescaped content only as
    /// far as key comparison needs (escapes beyond `\"` and `\\` are
    /// kept verbatim — spec keys are plain identifiers).
    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        other => {
                            out.push('\\');
                            out.push(other as char);
                        }
                    }
                }
                other => out.push(other as char),
            }
        }
    }

    /// Skips one complete JSON value of any shape.
    fn skip_value(&mut self) -> Option<()> {
        self.skip_ws();
        match self.peek()? {
            b'"' => {
                self.string()?;
                Some(())
            }
            b'{' => self.skip_container(b'{', b'}'),
            b'[' => self.skip_container(b'[', b']'),
            _ => {
                // Number / literal: run to a structural delimiter.
                while let Some(b) = self.peek() {
                    if b",]} \t\n\r".contains(&b) {
                        break;
                    }
                    self.pos += 1;
                }
                Some(())
            }
        }
    }

    fn skip_container(&mut self, open: u8, close: u8) -> Option<()> {
        self.expect(open)?;
        let mut depth = 1usize;
        while depth > 0 {
            let b = self.peek()?;
            if b == b'"' {
                self.string()?;
                continue;
            }
            self.pos += 1;
            if b == open {
                depth += 1;
            } else if b == close {
                depth -= 1;
            }
        }
        Some(())
    }

    /// With the cursor at a value, descends one path step and leaves
    /// the cursor at the start of the named sub-value.
    fn descend(&mut self, step: &Step) -> Option<()> {
        self.skip_ws();
        match step {
            Step::Key(key) => {
                self.expect(b'{')?;
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        return None;
                    }
                    let name = self.string()?;
                    self.expect(b':')?;
                    self.skip_ws();
                    if &name == key {
                        return Some(());
                    }
                    self.skip_value()?;
                    self.skip_ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    }
                }
            }
            Step::Index(i) => {
                self.expect(b'[')?;
                for _ in 0..*i {
                    self.skip_value()?;
                    self.skip_ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        return None;
                    }
                }
                self.skip_ws();
                if self.peek() == Some(b']') {
                    return None;
                }
                Some(())
            }
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
    let mut scanner = Scanner::new(text);
    scanner.skip_ws();
    for step in &steps {
        scanner.descend(step)?;
    }
    scanner.skip_ws();
    let offset = scanner.pos.min(text.len());
    let line_start = text[..offset].rfind('\n').map_or(0, |i| i + 1);
    let line_end = text[offset..].find('\n').map_or(text.len(), |i| offset + i);
    Some(Loc {
        line: text[..offset].matches('\n').count() + 1,
        column: offset - line_start + 1,
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
