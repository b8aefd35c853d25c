//! The one record format of the committed `BENCH_*.json` files: an
//! ordered, flat object of key → number or string, plus named arrays of
//! flat rows (`cells`, `amortization`, `degrade_cells`).
//!
//! Every file opens with the same [`Record::header`] keys — `figure`,
//! `mode`, `seed`, `nproc` — and [`Record::parse`] is the one reader the
//! baseline gate ([`crate::gate`]) uses. [`escape`] is the one JSON
//! string escaper, shared with the harness JSONL.

use std::fmt::{self, Write as _};

/// One value of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// An unsigned integer, printed exactly.
    Int(u64),
    /// A number printed with this many decimals (NaN prints as `NaN`).
    Num(f64, usize),
    /// A string.
    Str(String),
    /// An array of flat rows.
    Rows(Vec<Record>),
}

/// An ordered key → value record, built by chaining the appenders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// A `BENCH_*.json` record opened with the shared header.
    pub fn header(figure: &str, smoke: bool, seed: u64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Record::default()
            .str("figure", figure)
            .str("mode", if smoke { "smoke" } else { "full" })
            .int("seed", seed)
            .int("nproc", nproc as u64)
    }

    fn with(mut self, key: impl Into<String>, value: Value) -> Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Appends an integer.
    pub fn int(self, key: impl Into<String>, value: u64) -> Self {
        self.with(key, Value::Int(value))
    }

    /// Appends a number printed with `decimals` decimals.
    pub fn num(self, key: impl Into<String>, value: f64, decimals: usize) -> Self {
        self.with(key, Value::Num(value, decimals))
    }

    /// Appends a string.
    pub fn str(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.with(key, Value::Str(value.into()))
    }

    /// Appends an array of flat rows.
    pub fn rows(self, key: impl Into<String>, rows: Vec<Record>) -> Self {
        self.with(key, Value::Rows(rows))
    }

    /// The number stored under `key` (the first, if repeated), if it is
    /// one.
    pub fn number(&self, key: &str) -> Option<f64> {
        match &self.fields.iter().find(|(k, _)| k == key)?.1 {
            Value::Int(n) => Some(*n as f64),
            Value::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Writes the record to `path` as one JSON line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_string() + "\n")
    }

    /// Parses one JSON object of numbers, strings and arrays of such
    /// objects (`NaN` and `inf` read as numbers); the error names the
    /// byte offset of the first malformed token.
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut parser = Parser { s: text, i: 0 };
        let record = parser.object()?;
        match parser.peek() {
            None => Ok(record),
            Some(_) => Err(parser.error("trailing data")),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(f, "{sep}\"{}\":", escape(key))?;
            match value {
                Value::Int(n) => write!(f, "{n}")?,
                Value::Num(v, decimals) => write!(f, "{v:.decimals$}")?,
                Value::Str(s) => write!(f, "\"{}\"", escape(s))?,
                Value::Rows(rows) => {
                    let rows: Vec<String> = rows.iter().map(Record::to_string).collect();
                    write!(f, "[{}]", rows.join(","))?;
                }
            }
        }
        f.write_char('}')
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

type Res<T> = Result<T, String>;

/// A cursor over the text [`Record::parse`] reads.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    /// Skips blanks and returns the next character without consuming it.
    fn peek(&mut self) -> Option<char> {
        let s = self.s;
        let rest = s[self.i..].trim_start();
        self.i = s.len() - rest.len();
        rest.chars().next()
    }

    fn eat(&mut self, c: char) -> Res<()> {
        if self.peek() != Some(c) {
            return Err(self.error(&format!("expected '{c}'")));
        }
        self.i += 1;
        Ok(())
    }

    /// `open item (, item)* close`, possibly empty.
    fn seq<T>(&mut self, open: char, close: char, item: fn(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        self.eat(open)?;
        let mut items = Vec::new();
        if self.peek() != Some(close) {
            items.push(item(self)?);
            while self.peek() == Some(',') {
                self.i += 1;
                items.push(item(self)?);
            }
        }
        self.eat(close)?;
        Ok(items)
    }

    fn object(&mut self) -> Res<Record> {
        let fields = self.seq('{', '}', |p| {
            let key = p.string()?;
            p.eat(':')?;
            let value = match p.peek() {
                Some('"') => Value::Str(p.string()?),
                Some('[') => Value::Rows(p.seq('[', ']', Parser::object)?),
                _ => p.number()?,
            };
            Ok((key, value))
        })?;
        Ok(Record { fields })
    }

    fn string(&mut self) -> Res<String> {
        self.eat('"')?;
        let s = self.s;
        let mut out = String::new();
        let mut chars = s[self.i..].char_indices();
        while let Some((at, c)) = chars.next() {
            let decoded = match c {
                '"' => {
                    self.i += at + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map_or(' ', |(_, e)| e) {
                    'n' => Some('\n'),
                    't' => Some('\t'),
                    'r' => Some('\r'),
                    e @ ('"' | '\\' | '/') => Some(e),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                    }
                    _ => None,
                },
                c => Some(c),
            };
            out.push(decoded.ok_or_else(|| self.error("bad escape"))?);
        }
        Err(self.error("unterminated string"))
    }

    fn number(&mut self) -> Res<Value> {
        let s = self.s;
        let rest = &s[self.i..];
        let end = rest.find(|c: char| matches!(c, ',' | '}' | ']') || c.is_ascii_whitespace());
        let token = &rest[..end.unwrap_or(rest.len())];
        let value = match (token.parse::<u64>(), token.parse::<f64>()) {
            (Ok(n), _) => Value::Int(n),
            (_, Ok(v)) => {
                // Keep the decimals the token shows, so a rewrite is exact.
                let (mantissa, exp) = token.split_once(['e', 'E']).unwrap_or((token, "0"));
                let frac = mantissa.split_once('.').map_or(0, |(_, f)| f.len() as i64);
                Value::Num(v, (frac - exp.parse::<i64>().unwrap_or(0)).max(0) as usize)
            }
            _ => return Err(self.error(&format!("bad number {token:?}"))),
        };
        self.i += token.len();
        Ok(value)
    }
}
