//! Structured trace events serialized as Chrome trace-event JSON.
//!
//! Events carry *simulated* picosecond timestamps; the writer converts to
//! the microsecond `ts` unit the trace-event format specifies with exact
//! integer math (`ps / 1e6` with six fixed decimals), so output bytes are
//! a pure function of the recorded events. Load the resulting file in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use std::io::{self, Write};

/// Event phase, a subset of the trace-event `ph` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `ph:"i"` — a point-in-time instant event.
    Instant,
    /// `ph:"X"` — a complete span with a duration.
    Complete,
}

/// One recorded event. `args` values render as unsigned JSON integers.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    pub ph: Phase,
    pub ts_ps: u64,
    pub dur_ps: u64,
    pub args: Vec<(&'static str, u64)>,
}

/// An append-only event buffer. A disabled sink records nothing — every
/// recording method is a load-compare-return, so instrumented hot paths
/// pay one predictable branch when tracing is off.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    pub fn new(enabled: bool) -> Self {
        TraceSink {
            enabled,
            events: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// True when this sink records. Guard arg construction with this at
    /// call sites where building the arg list itself has a cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an instant event at simulated time `ts_ps`.
    #[inline]
    pub fn instant(&mut self, name: &'static str, cat: &'static str, ts_ps: u64) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name,
            cat,
            ph: Phase::Instant,
            ts_ps,
            dur_ps: 0,
            args: Vec::new(),
        });
    }

    /// Record an instant event with arguments.
    #[inline]
    pub fn instant_args(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_ps: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name,
            cat,
            ph: Phase::Instant,
            ts_ps,
            dur_ps: 0,
            args,
        });
    }

    /// Record a complete span covering `[ts_ps, ts_ps + dur_ps]`.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_ps: u64,
        dur_ps: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            name,
            cat,
            ph: Phase::Complete,
            ts_ps,
            dur_ps,
            args,
        });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the sink, yielding the recorded events in order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Picoseconds → trace-event microseconds, exactly: an integer part and
/// six fixed decimals, pure integer math.
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn write_event<W: Write>(w: &mut W, ev: &TraceEvent, pid: usize) -> io::Result<()> {
    let ph = match ev.ph {
        Phase::Instant => "i",
        Phase::Complete => "X",
    };
    write!(
        w,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":0",
        escape_json(ev.name),
        escape_json(ev.cat),
        ph,
        ts_us(ev.ts_ps),
        pid
    )?;
    if ev.ph == Phase::Complete {
        write!(w, ",\"dur\":{}", ts_us(ev.dur_ps))?;
    }
    if ev.ph == Phase::Instant {
        // Thread-scoped instant marker (the renderer default).
        write!(w, ",\"s\":\"t\"")?;
    }
    if !ev.args.is_empty() {
        write!(w, ",\"args\":{{")?;
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\"{}\":{}", escape_json(k), v)?;
        }
        write!(w, "}}")?;
    }
    write!(w, "}}")
}

/// Serialize scopes of events as one Chrome trace-event JSON document.
/// Each scope becomes a `pid` (in the given order) named via a
/// `process_name` metadata event, so Perfetto shows one track group per
/// scope. Output bytes are a pure function of the input.
pub fn write_chrome_trace<W: Write>(w: &mut W, scopes: &[(&str, &[TraceEvent])]) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for (pid, (label, _)) in scopes.iter().enumerate() {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            escape_json(label)
        )?;
    }
    for (pid, (_, events)) in scopes.iter().enumerate() {
        for ev in *events {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            writeln!(w)?;
            write_event(w, ev, pid)?;
        }
    }
    writeln!(w, "]}}")
}

// ---------------------------------------------------------------------------
// Minimal JSON syntax check and trace-event schema validator (used by tests,
// the determinism harness and perf_smoke). Hand-rolled so the workspace
// stays dependency-free.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "truncated escape".to_string())?;
                    self.i += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' | b'f' => out.push(' '),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            self.i += 4;
                            out.push('?');
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    /// Parse any JSON value.
    fn parse_value(&mut self) -> Result<Value, String> {
        match self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_string())?
        {
            b'{' => {
                self.eat(b'{')?;
                let mut out = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                } else {
                    loop {
                        let key = self.parse_string()?;
                        self.eat(b':')?;
                        let val = self.parse_value()?;
                        out.push((key, val));
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                break;
                            }
                            _ => return Err(format!("bad object at byte {}", self.i)),
                        }
                    }
                }
                Ok(Value::Object(out))
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                } else {
                    loop {
                        items.push(self.parse_value()?);
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                break;
                            }
                            _ => return Err(format!("bad array at byte {}", self.i)),
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' | b'f' | b'n' => {
                for lit in ["true", "false", "null"] {
                    if self.b[self.i..].starts_with(lit.as_bytes()) {
                        self.i += lit.len();
                        return Ok(Value::Other);
                    }
                }
                Err(format!("bad literal at byte {}", self.i))
            }
            _ => {
                self.parse_number()?;
                Ok(Value::Num)
            }
        }
    }
}

/// Just enough JSON to schema-check a trace file.
#[derive(Clone, Debug)]
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Str(String),
    Num,
    Other,
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse `text` as exactly one JSON value.
fn parse_json(text: &str) -> Result<Value, String> {
    let mut cur = Cursor {
        b: text.as_bytes(),
        i: 0,
    };
    let root = cur.parse_value()?;
    cur.skip_ws();
    if cur.i != cur.b.len() {
        return Err(format!("trailing bytes after JSON document at {}", cur.i));
    }
    Ok(root)
}

/// Validate that `text` is one well-formed JSON document. `NaN` and
/// `inf`, which JSON has no literal for, are rejected.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(drop)
}

/// Validate that `text` parses as JSON (the [`validate_json`] syntax
/// check) and conforms to the Chrome trace-event container format: a root
/// object with a `traceEvents` array whose elements each carry a string
/// `name`, a string `ph`, and numeric `ts`/`pid`. Returns the number of
/// events on success.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let root = parse_json(text)?;
    let events = match root.get("traceEvents") {
        Some(Value::Array(items)) => items,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents key".into()),
    };
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Value::Object(_)) {
            return Err(format!("event {i} is not an object"));
        }
        match ev.get("name") {
            Some(Value::Str(_)) => {}
            _ => return Err(format!("event {i}: missing string field 'name'")),
        }
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("event {i}: missing string field 'ph'")),
        };
        for field in ["ts", "pid"] {
            match ev.get(field) {
                Some(Value::Num) => {}
                _ => return Err(format!("event {i}: missing numeric field '{field}'")),
            }
        }
        if ph == "X" && !matches!(ev.get("dur"), Some(Value::Num)) {
            return Err(format!("event {i}: complete event without numeric 'dur'"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        s.instant("flow_start", "flow", 100);
        s.span("cell", "exec", 0, 50, vec![("n", 1)]);
        assert!(s.is_empty());
    }

    #[test]
    fn emitted_trace_passes_the_schema_check() {
        let mut s = TraceSink::new(true);
        s.instant("flow_start", "flow", 1_234_567);
        s.instant_args("rate_epoch", "flow", 2_000_000, vec![("touched_flows", 7)]);
        s.span("cell_start", "exec", 0, 5_000_000, vec![("index", 3)]);
        let events = s.into_events();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[("main", &events)]).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        // 1 process_name metadata event + 3 recorded events.
        assert_eq!(validate_chrome_trace(&text), Ok(4), "trace was:\n{text}");
        assert!(
            text.contains("\"ts\":1.234567"),
            "exact µs conversion:\n{text}"
        );
        assert!(text.contains("\"touched_flows\":7"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(
            validate_chrome_trace("{\"traceEvents\":1}").is_err(),
            "not an array"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\",\"ts\":0,\"pid\":0}]}").is_err(),
            "missing name"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":0,\"pid\":0}]"
            )
            .is_err(),
            "truncated document"
        );
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn json_syntax_check_accepts_documents_and_rejects_non_json() {
        assert_eq!(
            validate_json("{\"a\": [1, 2.5, -3e2, \"s\\\"\", true, null], \"b\": {}}\n"),
            Ok(())
        );
        for bad in [
            "{\"a\": NaN}",
            "[inf]",
            "{\"a\": 1,}",
            "[1] [2]",
            "{\"a\" 1}",
            "",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn scopes_map_to_stable_pids() {
        let mut a = TraceSink::new(true);
        a.instant("job_queued", "cluster", 10);
        let mut b = TraceSink::new(true);
        b.instant("job_placed", "cluster", 20);
        let (ea, eb) = (a.into_events(), b.into_events());
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[("load/heavy", &ea), ("load/light", &eb)]).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("\"args\":{\"name\":\"load/heavy\"}"));
        assert!(text.contains(
            "\"name\":\"job_placed\",\"cat\":\"cluster\",\"ph\":\"i\",\"ts\":0.000020,\"pid\":1"
        ));
    }
}
