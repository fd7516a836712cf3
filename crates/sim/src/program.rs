//! Programs: a loadable text representation of operation traces.
//!
//! Poseidon is *programmable* — higher-level FHE applications are streams
//! of basic operations dispatched to the operator cores. This module gives
//! those streams a concrete, parseable form so workloads can be stored,
//! diffed, and replayed:
//!
//! ```text
//! # packed bootstrapping, CoeffToSlot stage
//! n=65536 special=2 dnum=1
//! rotation  L=57 x16
//! pmult     L=57 x32
//! hadd      L=57 x32
//! rescale   L=57
//! ```
//!
//! One directive line sets the ring parameters; each instruction line is
//! `<op> L=<components> [x<count>]`. Comments (`#`) and blank lines are
//! ignored. [`parse`] validates everything and produces an
//! [`OpTrace`]; [`format`](fn@format) is its inverse.

use poseidon_core::decompose::{BasicOp, OpParams, OpTrace};
use std::fmt;

/// A parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
    /// The offending token, when the error can be pinned on one (unknown
    /// operation names, unparsable numbers, stray tokens). `None` for
    /// structural errors (missing directives, range violations).
    pub token: Option<String>,
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if let Some(t) = &self.token {
            write!(f, " (offending token `{t}`)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseProgramError {}

fn op_from_name(name: &str) -> Option<BasicOp> {
    Some(match name {
        "hadd" => BasicOp::HAdd,
        "pmult" => BasicOp::PMult,
        "cmult" => BasicOp::CMult,
        "rescale" => BasicOp::Rescale,
        "keyswitch" => BasicOp::Keyswitch,
        "rotation" => BasicOp::Rotation,
        "modup" => BasicOp::Modup,
        "moddown" => BasicOp::Moddown,
        _ => return None,
    })
}

fn op_to_name(op: BasicOp) -> &'static str {
    match op {
        BasicOp::HAdd => "hadd",
        BasicOp::PMult => "pmult",
        BasicOp::CMult => "cmult",
        BasicOp::Rescale => "rescale",
        BasicOp::Keyswitch => "keyswitch",
        BasicOp::Rotation => "rotation",
        BasicOp::Modup => "modup",
        BasicOp::Moddown => "moddown",
    }
}

/// Parses a program text into an operation trace.
///
/// # Errors
///
/// Returns the first syntax or validation error with its line number.
pub fn parse(text: &str) -> Result<OpTrace, ParseProgramError> {
    let mut n: Option<usize> = None;
    let mut special = 1usize;
    let mut dnum = 1usize;
    let mut trace = OpTrace::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |m: String| ParseProgramError {
            line: lineno,
            message: m,
            token: None,
        };
        let err_tok = |m: String, t: &str| ParseProgramError {
            line: lineno,
            message: m,
            token: Some(t.to_string()),
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens[0].contains('=') {
            // Directive line: key=value pairs.
            for t in &tokens {
                let (k, v) = t
                    .split_once('=')
                    .ok_or_else(|| err_tok(format!("malformed directive `{t}`"), t))?;
                let v: usize = v
                    .parse()
                    .map_err(|_| err_tok(format!("`{v}` is not a number"), t))?;
                match k {
                    "n" => n = Some(v),
                    "special" => special = v,
                    "dnum" => dnum = v,
                    other => return Err(err_tok(format!("unknown directive `{other}`"), t)),
                }
            }
            continue;
        }
        // Instruction line.
        let op = op_from_name(tokens[0])
            .ok_or_else(|| err_tok(format!("unknown operation `{}`", tokens[0]), tokens[0]))?;
        let n = n.ok_or_else(|| err("ring degree not set (need an `n=` directive)".into()))?;
        let mut components: Option<usize> = None;
        let mut count = 1u64;
        for t in &tokens[1..] {
            if let Some(v) = t.strip_prefix("L=") {
                components = Some(
                    v.parse()
                        .map_err(|_| err_tok(format!("`{v}` is not a component count"), t))?,
                );
            } else if let Some(v) = t.strip_prefix('x') {
                count = v
                    .parse()
                    .map_err(|_| err_tok(format!("`{v}` is not a repetition count"), t))?;
            } else {
                return Err(err_tok(format!("unexpected token `{t}`"), t));
            }
        }
        let components = components.ok_or_else(|| err("missing `L=<components>`".into()))?;
        if !n.is_power_of_two() || n < 8 {
            return Err(err(format!("ring degree {n} must be a power of two ≥ 8")));
        }
        if components == 0 {
            return Err(err("component count must be positive".into()));
        }
        if dnum > components {
            return Err(err(format!("dnum {dnum} exceeds components {components}")));
        }
        trace.push(op, OpParams::with_dnum(n, components, special, dnum), count);
    }
    Ok(trace)
}

/// Formats a trace back into program text (inverse of [`parse`] up to
/// whitespace and comments). Parameters are re-emitted whenever they
/// change between entries.
pub fn format(trace: &OpTrace) -> String {
    let mut out = String::new();
    let mut last: Option<(usize, usize, usize)> = None;
    for (op, p, count) in trace.entries() {
        let key = (p.n, p.special, p.dnum);
        if last != Some(key) {
            out.push_str(&std::format!(
                "n={} special={} dnum={}\n",
                p.n,
                p.special,
                p.dnum
            ));
            last = Some(key);
        }
        out.push_str(op_to_name(*op));
        out.push_str(&std::format!(" L={}", p.components));
        if *count != 1 {
            out.push_str(&std::format!(" x{count}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_program() {
        let text = "\
# demo
n=4096 special=1
hadd L=4 x3
cmult L=4
rescale L=3
";
        let t = parse(text).unwrap();
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.entries()[0].2, 3);
        assert_eq!(t.entries()[2].1.components, 3);
    }

    #[test]
    fn round_trips_through_format() {
        let text = "n=4096 special=2 dnum=2\nrotation L=10 x5\npmult L=9\n";
        let t = parse(text).unwrap();
        let t2 = parse(&format(&t)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn benchmark_traces_round_trip() {
        for b in crate::workloads::Benchmark::ALL {
            let t = b.trace();
            let back = parse(&format(&t)).unwrap();
            assert_eq!(t, back, "{}", b.name());
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("n=4096\nfrobnicate L=3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));

        let e = parse("hadd L=3\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("ring degree"));

        let e = parse("n=100\nhadd L=3\n").unwrap_err();
        assert!(e.message.contains("power of two"));

        let e = parse("n=4096 dnum=5\nhadd L=3\n").unwrap_err();
        assert!(e.message.contains("dnum"));
    }

    #[test]
    fn errors_carry_the_offending_token() {
        // Unknown operation: the token is the op name, and Display shows
        // both the 1-based line and the token.
        let e = parse("n=4096\nfrobnicate L=3\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("frobnicate"));
        assert_eq!(
            e.to_string(),
            "line 2: unknown operation `frobnicate` (offending token `frobnicate`)"
        );

        // Unparsable numbers pin the full token they sit in.
        let e = parse("n=potato\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("n=potato"));
        assert!(e.to_string().starts_with("line 1:"));

        let e = parse("n=4096\nhadd L=abc\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("L=abc"));

        let e = parse("n=4096\nhadd L=3 xfoo\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("xfoo"));

        let e = parse("n=4096\nhadd L=3 wat\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("wat"));
        assert_eq!(
            e.to_string(),
            "line 2: unexpected token `wat` (offending token `wat`)"
        );

        let e = parse("n=4096 frob=1\nhadd L=3\n").unwrap_err();
        assert_eq!(e.token.as_deref(), Some("frob=1"));

        // Structural errors have no single offending token.
        let e = parse("hadd L=3\n").unwrap_err();
        assert_eq!(e.token, None);
        assert_eq!(
            e.to_string(),
            "line 1: ring degree not set (need an `n=` directive)"
        );
        let e = parse("n=4096 dnum=5\nhadd L=3\n").unwrap_err();
        assert_eq!(e.token, None);
    }

    #[test]
    fn parsed_programs_simulate() {
        let text = "n=65536 special=2\ncmult L=44 x10\nrotation L=44 x4\n";
        let t = parse(text).unwrap();
        let r = crate::Simulator::new(crate::AcceleratorConfig::poseidon_u280()).run(&t);
        assert!(r.seconds > 0.0);
    }
}
