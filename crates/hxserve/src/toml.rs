//! A dependency-free parser for the TOML subset the scenario specs use
//! (same no-crates.io regime as `hxlint`'s lexer).
//!
//! Supported: `[section]` headers (including dotted names like
//! `[failures.schedule]`, treated as flat sections keyed by the full
//! dotted name), `key = value` entries, `#` comments, and four value
//! shapes — basic strings with `\n`/`\t`/`\\`/`\"` escapes, integers,
//! booleans, and single-line homogeneous arrays of strings or integers.
//! Deliberately not supported (the spec schema never needs them): nested
//! tables, dotted keys, floats, dates, multi-line strings.
//!
//! The parser is strict where the spec layer needs it to be: duplicate
//! keys within a section and duplicate section names are hard errors (a
//! sweep axis given twice must not silently last-write-win), and every
//! diagnostic carries the 1-based source line.

use std::fmt;

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrList(Vec<String>),
    IntList(Vec<i64>),
}

impl Value {
    /// Human name of the value's shape, for error messages.
    pub fn shape(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::StrList(_) => "string array",
            Value::IntList(_) => "integer array",
        }
    }
}

/// One `key = value` entry with its source line.
#[derive(Debug, Clone)]
pub struct Entry {
    pub key: String,
    pub value: Value,
    pub line: u32,
}

/// One `[section]` with its entries in source order.
#[derive(Debug, Clone)]
pub struct Section {
    pub name: String,
    pub line: u32,
    pub entries: Vec<Entry>,
}

impl Section {
    /// Look up a key in this section.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: sections in source order.
#[derive(Debug, Clone, Default)]
pub struct Doc {
    pub sections: Vec<Section>,
}

impl Doc {
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// A parse or validation error pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line in the spec source; 0 = whole document.
    pub line: u32,
    pub msg: String,
}

impl SpecError {
    pub fn at(line: u32, msg: impl Into<String>) -> Self {
        Self {
            line,
            msg: msg.into(),
        }
    }

    pub fn whole(msg: impl Into<String>) -> Self {
        Self::at(0, msg)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec: {}", self.msg)
        } else {
            write!(f, "spec line {}: {}", self.line, self.msg)
        }
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Section names additionally allow interior dots (`failures.schedule`):
/// every dot-separated segment must be a non-empty key identifier.
fn is_section_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .split('.')
            .all(|seg| !seg.is_empty() && seg.chars().all(is_key_char))
}

/// Strip a trailing `#` comment from a line, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => escaped = true,
            '"' if !escaped => {
                in_str = !in_str;
                escaped = false;
            }
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Parse one scalar token (string, integer, or boolean).
fn parse_scalar(tok: &str, line: u32) -> Result<Value, SpecError> {
    let tok = tok.trim();
    if let Some(body) = tok.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(SpecError::at(line, format!("unterminated string {tok:?}")));
        };
        // Reject an interior unescaped quote ("a"b") that suffix-stripping
        // would otherwise let through.
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    other => {
                        return Err(SpecError::at(
                            line,
                            format!("unknown escape \\{} in string", other.unwrap_or(' ')),
                        ))
                    }
                },
                '"' => {
                    return Err(SpecError::at(
                        line,
                        "unescaped quote inside string".to_string(),
                    ))
                }
                c => out.push(c),
            }
        }
        return Ok(Value::Str(out));
    }
    match tok {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits = tok.strip_prefix('-').unwrap_or(tok);
    if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit() || c == '_') {
        let clean: String = tok.chars().filter(|&c| c != '_').collect();
        return clean
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| SpecError::at(line, format!("integer out of range: {tok}")));
    }
    Err(SpecError::at(
        line,
        format!("unrecognized value {tok:?} (expected string, integer, boolean, or array)"),
    ))
}

/// Split an array body on top-level commas, respecting string quotes.
fn split_array_items(body: &str, line: u32) -> Result<Vec<&str>, SpecError> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_str && !escaped => escaped = true,
            '"' if !escaped => {
                in_str = !in_str;
                escaped = false;
            }
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if in_str {
        return Err(SpecError::at(line, "unterminated string in array"));
    }
    // An empty tail after the last comma is a permitted trailing comma.
    let tail = &body[start..];
    if !tail.trim().is_empty() {
        items.push(tail);
    }
    Ok(items)
}

fn parse_value(raw: &str, line: u32) -> Result<Value, SpecError> {
    let raw = raw.trim();
    if let Some(body) = raw.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(SpecError::at(
                line,
                "unterminated array (arrays must close on the same line)",
            ));
        };
        let items = split_array_items(body, line)?;
        let scalars: Vec<Value> = items
            .iter()
            .map(|it| parse_scalar(it, line))
            .collect::<Result<_, _>>()?;
        if scalars.iter().all(|v| matches!(v, Value::Int(_))) {
            return Ok(Value::IntList(
                scalars
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => i,
                        _ => unreachable!("all items matched Int"),
                    })
                    .collect(),
            ));
        }
        if scalars.iter().all(|v| matches!(v, Value::Str(_))) {
            return Ok(Value::StrList(
                scalars
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => s,
                        _ => unreachable!("all items matched Str"),
                    })
                    .collect(),
            ));
        }
        return Err(SpecError::at(
            line,
            "mixed-type array (arrays must be all strings or all integers)",
        ));
    }
    parse_scalar(raw, line)
}

/// Parse a spec document. See the module docs for the accepted subset.
pub fn parse(src: &str) -> Result<Doc, SpecError> {
    let mut doc = Doc::default();
    for (idx, raw_line) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(body) = line.strip_prefix('[') {
            let Some(name) = body.strip_suffix(']') else {
                return Err(SpecError::at(lineno, format!("malformed section {line:?}")));
            };
            let name = name.trim();
            if !is_section_name(name) {
                return Err(SpecError::at(
                    lineno,
                    format!("malformed section name {name:?}"),
                ));
            }
            if doc.section(name).is_some() {
                return Err(SpecError::at(lineno, format!("duplicate section [{name}]")));
            }
            doc.sections.push(Section {
                name: name.to_string(),
                line: lineno,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SpecError::at(
                lineno,
                format!("expected `key = value` or `[section]`, got {line:?}"),
            ));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(is_key_char) {
            return Err(SpecError::at(lineno, format!("malformed key {key:?}")));
        }
        let Some(section) = doc.sections.last_mut() else {
            return Err(SpecError::at(
                lineno,
                format!("key `{key}` appears before any [section] header"),
            ));
        };
        if section.get(key).is_some() {
            return Err(SpecError::at(
                lineno,
                format!("duplicate key `{key}` in [{}]", section.name),
            ));
        }
        let value = parse_value(value, lineno)?;
        section.entries.push(Entry {
            key: key.to_string(),
            value,
            line: lineno,
        });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = parse(
            "# a comment\n[scenario]\nname = \"x\" # trailing\nseed = 42\nfull = true\n\
             [sweep]\nbytes = [1, 2, 3]\nnames = [\"a\", \"b\"]\n",
        )
        .unwrap();
        assert_eq!(doc.sections.len(), 2);
        let sc = doc.section("scenario").unwrap();
        assert_eq!(sc.get("name").unwrap().value, Value::Str("x".into()));
        assert_eq!(sc.get("seed").unwrap().value, Value::Int(42));
        assert_eq!(sc.get("full").unwrap().value, Value::Bool(true));
        let sw = doc.section("sweep").unwrap();
        assert_eq!(
            sw.get("bytes").unwrap().value,
            Value::IntList(vec![1, 2, 3])
        );
        assert_eq!(
            sw.get("names").unwrap().value,
            Value::StrList(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse("[s]\nnote = \"line1\\nline2 \\\"q\\\" \\\\ tab\\t.\"\n").unwrap();
        let Value::Str(s) = &doc.section("s").unwrap().get("note").unwrap().value else {
            panic!("not a string");
        };
        assert_eq!(s, "line1\nline2 \"q\" \\ tab\t.");
        // The JSONL writer's escaper spells the spec's escape set the way
        // the spec does, so a name or note reads back unchanged.
        let requoted = hammingmesh::hxtelemetry::trace::escape_json(s);
        let doc2 = parse(&format!("[s]\nnote = \"{requoted}\"\n")).unwrap();
        assert_eq!(
            doc2.section("s").unwrap().get("note").unwrap().value,
            Value::Str(s.clone())
        );
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("[s]\nk = \"a # b\"\n").unwrap();
        assert_eq!(
            doc.section("s").unwrap().get("k").unwrap().value,
            Value::Str("a # b".into())
        );
    }

    #[test]
    fn dotted_section_names_parse_as_flat_sections() {
        let doc =
            parse("[failures]\nmode = \"midrun\"\n[failures.schedule]\nfail_at_ps = [1000]\n")
                .unwrap();
        assert!(doc.section("failures").is_some());
        let sched = doc.section("failures.schedule").unwrap();
        assert_eq!(
            sched.get("fail_at_ps").unwrap().value,
            Value::IntList(vec![1000])
        );
        // Degenerate dotted forms stay malformed.
        assert!(parse("[.a]\n").is_err());
        assert!(parse("[a.]\n").is_err());
        assert!(parse("[a..b]\n").is_err());
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let err = parse("[sweep]\nbytes = [1]\nbytes = [2]\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("duplicate key `bytes`"), "{err}");
    }

    #[test]
    fn duplicate_section_is_an_error() {
        let err = parse("[a]\n[b]\n[a]\n").unwrap_err();
        assert!(err.msg.contains("duplicate section"), "{err}");
    }

    #[test]
    fn key_outside_section_is_an_error() {
        let err = parse("k = 1\n").unwrap_err();
        assert!(err.msg.contains("before any [section]"), "{err}");
    }

    #[test]
    fn mixed_array_is_an_error() {
        let err = parse("[s]\nk = [1, \"a\"]\n").unwrap_err();
        assert!(err.msg.contains("mixed-type"), "{err}");
    }

    #[test]
    fn junk_values_are_errors() {
        assert!(parse("[s]\nk = nope\n").is_err());
        assert!(parse("[s]\nk = \"open\n").is_err());
        assert!(parse("[s]\nk = [1, 2\n").is_err());
        assert!(parse("[s]\nk\n").is_err());
    }

    #[test]
    fn negative_and_underscored_integers() {
        let doc = parse("[s]\na = -7\nb = 1_000\n").unwrap();
        assert_eq!(
            doc.section("s").unwrap().get("a").unwrap().value,
            Value::Int(-7)
        );
        assert_eq!(
            doc.section("s").unwrap().get("b").unwrap().value,
            Value::Int(1000)
        );
    }
}
