//! STF parser: reads the Simple Test Framework text format back into test
//! specifications, closing the loop `oracle → STF file → software model`
//! exactly the way BMv2's STF driver consumes P4C test files.
//!
//! Grammar (one directive per line, `#` comments):
//! ```text
//! add <table> [<priority>] <key>:<spec> ... <action>(<param>:<value>, ...)
//! packet <port> <hex>
//! expect <port> <hex with * don't-care nibbles>
//! register_write <instance> <index> <hex>
//! register_check <instance> <index> <hex>
//! ```
//! Key specs: `0xVV` (exact), `0xVV&&&0xMM` (ternary), `0xVV/len` (lpm),
//! `*` (optional wildcard).

use p4testgen_core::testspec::{
    KeyMatch, MaskedBytes, OutputPacketSpec, RegisterSpec, TableEntrySpec, TestSpec,
};

/// A parse failure with its line number.
#[derive(Debug, Clone)]
pub struct StfParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for StfParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "STF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for StfParseError {}

fn err(line: usize, message: impl Into<String>) -> StfParseError {
    StfParseError { line, message: message.into() }
}

fn parse_hex_bytes(s: &str, line: usize) -> Result<Vec<u8>, StfParseError> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s.to_string() };
    (0..padded.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&padded[i..i + 2], 16)
                .map_err(|_| err(line, format!("bad hex '{s}'")))
    })
        .collect()
}

/// Hex with `*` don't-care nibbles.
fn parse_masked(s: &str, line: usize) -> Result<MaskedBytes, StfParseError> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s.to_string() };
    let mut data = Vec::new();
    let mut mask = Vec::new();
    let chars: Vec<char> = padded.chars().collect();
    for pair in chars.chunks(2) {
        let mut d = 0u8;
        let mut m = 0u8;
        for (k, &c) in pair.iter().enumerate() {
            let shift = if k == 0 { 4 } else { 0 };
            if c == '*' {
                continue;
            }
            let nib = c.to_digit(16).ok_or_else(|| err(line, format!("bad hex '{s}'")))? as u8;
            d |= nib << shift;
            m |= 0xF << shift;
        }
        data.push(d);
        mask.push(m);
    }
    Ok(MaskedBytes { data, mask })
}

/// Parse a whole STF file into test specifications. Tests are delimited by
/// `packet` lines: directives before a `packet` configure it; `expect` and
/// `register_check` lines after it describe its expectations.
pub fn parse_stf(source: &str) -> Result<Vec<TestSpec>, StfParseError> {
    let mut tests: Vec<TestSpec> = Vec::new();
    let mut pending_entries: Vec<TableEntrySpec> = Vec::new();
    let mut pending_regs: Vec<RegisterSpec> = Vec::new();
    let mut next_id = 0u64;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap();
        match cmd {
            "add" => {
                pending_entries.push(parse_add(&mut words, lineno)?);
            }
            "register_write" => {
                let instance = words.next().ok_or_else(|| err(lineno, "missing instance"))?;
                let index: u64 = words
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad index"))?;
                let value = parse_hex_bytes(
                    words.next().ok_or_else(|| err(lineno, "missing value"))?,
                    lineno,
                )?;
                pending_regs.push(RegisterSpec { instance: instance.to_string(), index, value });
            }
            "packet" => {
                let port: u32 = words
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad port"))?;
                let data = parse_hex_bytes(
                    words.next().ok_or_else(|| err(lineno, "missing packet bytes"))?,
                    lineno,
                )?;
                if words.next().is_some() {
                    return Err(err(lineno, "trailing tokens after packet bytes"));
                }
                tests.push(TestSpec {
                    id: next_id,
                    program: String::new(),
                    target: String::new(),
                    seed: 0,
                    input_port: port,
                    input_packet: data,
                    entries: std::mem::take(&mut pending_entries),
                    register_init: std::mem::take(&mut pending_regs),
                    register_expect: Vec::new(),
                    outputs: Vec::new(),
                    covered_statements: Vec::new(),
                    trace: Default::default(),
                });
                next_id += 1;
            }
            "expect" => {
                let t = tests.last_mut().ok_or_else(|| err(lineno, "expect before packet"))?;
                let port: u32 = words
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad port"))?;
                let packet = parse_masked(
                    words.next().ok_or_else(|| err(lineno, "missing bytes"))?,
                    lineno,
                )?;
                if words.next().is_some() {
                    return Err(err(lineno, "trailing tokens after expect bytes"));
                }
                t.outputs.push(OutputPacketSpec { port, packet });
            }
            "register_check" => {
                let t = tests.last_mut().ok_or_else(|| err(lineno, "check before packet"))?;
                let instance = words.next().ok_or_else(|| err(lineno, "missing instance"))?;
                let index: u64 = words
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "bad index"))?;
                let value = parse_hex_bytes(
                    words.next().ok_or_else(|| err(lineno, "missing value"))?,
                    lineno,
                )?;
                t.register_expect.push(RegisterSpec {
                    instance: instance.to_string(),
                    index,
                    value,
                });
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    Ok(tests)
}

fn parse_add<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<TableEntrySpec, StfParseError> {
    let table = words.next().ok_or_else(|| err(lineno, "missing table"))?.to_string();
    let mut priority = 0u32;
    let mut keys = Vec::new();
    let mut action = String::new();
    let mut action_args = Vec::new();
    let rest: Vec<&str> = words.collect();
    let mut i = 0;
    // Optional numeric priority.
    if let Some(p) = rest.first().and_then(|s| s.parse::<u32>().ok()) {
        priority = p;
        i = 1;
    }
    while i < rest.len() {
        let w = rest[i];
        if let Some(colon) = w.find(':') {
            if w.contains('(') {
                // already the action
            } else {
                let name = w[..colon].to_string();
                let spec = &w[colon + 1..];
                let key = if spec == "*" {
                    KeyMatch::Optional { name, value: None }
                } else if let Some((v, m)) = spec.split_once("&&&") {
                    KeyMatch::Ternary {
                        name,
                        value: parse_hex_bytes(v, lineno)?,
                        mask: parse_hex_bytes(m, lineno)?,
                    }
                } else if let Some((v, plen)) = spec.split_once('/') {
                    KeyMatch::Lpm {
                        name,
                        value: parse_hex_bytes(v, lineno)?,
                        prefix_len: plen.parse().map_err(|_| err(lineno, "bad prefix"))?,
                    }
                } else {
                    KeyMatch::Exact { name, value: parse_hex_bytes(spec, lineno)? }
                };
                keys.push(key);
                i += 1;
                continue;
            }
        }
        // The action: `name(arg:0xVV, arg:0xVV)` — may span several words
        // because of the ", " separators.
        let action_text = rest[i..].join(" ");
        let open = action_text.find('(').ok_or_else(|| err(lineno, "missing action args"))?;
        action = action_text[..open].to_string();
        let close = action_text.rfind(')').ok_or_else(|| err(lineno, "unclosed action"))?;
        for part in action_text[open + 1..close].split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (n, v) = part.split_once(':').ok_or_else(|| err(lineno, "bad param"))?;
            action_args.push((n.to_string(), parse_hex_bytes(v, lineno)?));
        }
        break;
    }
    if action.is_empty() {
        return Err(err(lineno, "entry has no action"));
    }
    Ok(TableEntrySpec { table, keys, action, action_args, priority })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stf::StfBackend;
    use crate::TestBackend;

    #[test]
    fn parse_minimal_suite() {
        let src = r#"
# a comment
add Ing.t dmac:0x001122334455 Ing.fwd(p:0x0002)
packet 0 AABBCCDDEEFF00112233445508 00
expect 2 AABB**DDEEFF*0112233445508 00
"#;
        // note: spaces inside hex are not allowed; this line has a payload
        // word that must fail.
        assert!(parse_stf(src).is_err());
    }

    #[test]
    fn round_trip_through_emitter() {
        let spec = crate::sample_spec();
        let text = StfBackend.emit_test(&spec).unwrap();
        let parsed = parse_stf(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.input_packet, spec.input_packet);
        assert_eq!(p.input_port, spec.input_port);
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].table, spec.entries[0].table);
        assert_eq!(p.entries[0].action, spec.entries[0].action);
        assert_eq!(p.entries[0].keys, spec.entries[0].keys);
        assert_eq!(p.entries[0].action_args, spec.entries[0].action_args);
        assert_eq!(p.outputs.len(), 1);
        assert_eq!(p.outputs[0].port, spec.outputs[0].port);
        assert_eq!(p.outputs[0].packet.data, spec.outputs[0].packet.data);
    }

    #[test]
    fn wildcard_nibbles_parse_as_mask() {
        let src = "packet 0 00\nexpect 1 A*\n";
        let tests = parse_stf(src).unwrap();
        let out = &tests[0].outputs[0].packet;
        assert_eq!(out.data, vec![0xA0]);
        assert_eq!(out.mask, vec![0xF0]);
    }

    #[test]
    fn ternary_and_lpm_key_specs() {
        let src =
            "add t 7 a:0x12&&&0xF0 b:0x0A000000/8 c:* act(x:0x01)\npacket 0 00\n";
        let tests = parse_stf(src).unwrap();
        let e = &tests[0].entries[0];
        assert_eq!(e.priority, 7);
        assert!(matches!(e.keys[0], KeyMatch::Ternary { .. }));
        assert!(matches!(e.keys[1], KeyMatch::Lpm { prefix_len: 8, .. }));
        assert!(matches!(e.keys[2], KeyMatch::Optional { value: None, .. }));
    }

    #[test]
    fn register_directives() {
        let src = "register_write r 3 0x2A\npacket 0 00\nregister_check r 3 0x2B\n";
        let tests = parse_stf(src).unwrap();
        assert_eq!(tests[0].register_init[0].value, vec![0x2A]);
        assert_eq!(tests[0].register_expect[0].value, vec![0x2B]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_stf("packet 0 00\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
