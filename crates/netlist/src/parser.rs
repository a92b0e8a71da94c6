//! Reader for the ISCAS-85 `.bench` textual netlist format.
//!
//! The format (Brglez & Fujiwara, ISCAS 1985) is line-oriented:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G10 = NAND(G1, G3)
//! G17 = NOT(G10)
//! ```
//!
//! Gate kinds map per [`crate::GateKind::from_str`]; fan-in is taken from
//! the operand count (so `NAND(a, b, c)` becomes `NAND3`). Wide gates up to
//! [`crate::GateKind::MAX_ARITY`] inputs are accepted and can be narrowed to
//! library arities with [`crate::map_to_primitives`].
//!
//! ISCAS-89 sequential benchmarks (`s27`, `s38417`, …) use `DFF` lines; the
//! parser performs the standard combinational extraction: a flip-flop's `Q`
//! output becomes a pseudo primary input and its `D` input a pseudo primary
//! output, leaving exactly the register-to-register combinational logic the
//! standby optimizer operates on (the paper's sleep vectors are scanned
//! into those registers).

use std::collections::HashMap;

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnsupportedKind`] for unknown gate kinds, and the usual
/// structural errors (undefined signals, cycles, multiple drivers) from
/// validation.
///
/// # Example
///
/// ```
/// let text = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = NAND(a, b)
/// ";
/// let n = svtox_netlist::parse_bench(text)?;
/// assert_eq!(n.num_gates(), 1);
/// # Ok::<(), svtox_netlist::NetlistError>(())
/// ```
pub fn parse_bench(text: &str) -> Result<Netlist, NetlistError> {
    let mut builder = NetlistBuilder::new("bench");
    let mut by_name: HashMap<String, NetId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();

    let mut lookup = |builder: &mut NetlistBuilder, name: &str| -> NetId {
        if let Some(&id) = by_name.get(name) {
            id
        } else {
            let id = builder.declare_net(name);
            by_name.insert(name.to_string(), id);
            id
        }
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        if let Some(rest) = strip_call(line, "INPUT") {
            let id = lookup(&mut builder, rest.trim());
            builder
                .promote_to_input(id)
                .map_err(|_| NetlistError::Parse {
                    line: lineno,
                    message: format!("duplicate INPUT({})", rest.trim()),
                })?;
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            outputs.push(rest.trim().to_string());
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            if let Some(dff_arg) = parse_dff(rhs) {
                if dff_arg.is_empty() || dff_arg.contains(',') {
                    return Err(NetlistError::Parse {
                        line: lineno,
                        message: format!("DFF takes exactly one input, got `{rhs}`"),
                    });
                }
                // Combinational extraction: Q becomes a pseudo-PI, D a
                // pseudo-PO.
                let q = lookup(&mut builder, target);
                builder
                    .promote_to_input(q)
                    .map_err(|_| NetlistError::Parse {
                        line: lineno,
                        message: format!("flip-flop output `{target}` already driven"),
                    })?;
                let d = lookup(&mut builder, dff_arg);
                builder.mark_output(d);
                continue;
            }
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("expected `kind(args)` after `=`, got `{rhs}`"),
            })?;
            if !rhs.ends_with(')') {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: "missing closing parenthesis".into(),
                });
            }
            let kind_name = rhs[..open].trim();
            let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            let parsed: GateKind = kind_name.parse()?;
            let kind = resize_kind(parsed, args.len()).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("`{kind_name}` cannot take {} inputs", args.len()),
            })?;
            let input_ids: Vec<NetId> = args.iter().map(|a| lookup(&mut builder, a)).collect();
            let out = lookup(&mut builder, target);
            builder.add_gate_driving(kind, &input_ids, out)?;
        } else {
            return Err(NetlistError::Parse {
                line: lineno,
                message: format!("unrecognized line `{line}`"),
            });
        }
    }

    for name in outputs {
        let id = *by_name
            .get(&name)
            .ok_or(NetlistError::UndefinedSignal(name))?;
        builder.mark_output(id);
    }
    builder.finish()
}

/// Returns the operand of a `DFF(...)` right-hand side, if it is one.
fn parse_dff(rhs: &str) -> Option<&str> {
    let rest = rhs
        .strip_prefix("DFF")
        .or_else(|| rhs.strip_prefix("dff"))?;
    let rest = rest.trim_start().strip_prefix('(')?;
    let inner = rest.strip_suffix(')')?;
    Some(inner.trim())
}

/// Returns the argument of `NAME( ... )` if `line` has that shape.
fn strip_call<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(name)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

/// Adjusts a parsed kind's arity to the operand count, if legal.
fn resize_kind(kind: GateKind, args: usize) -> Option<GateKind> {
    match kind {
        GateKind::Inv | GateKind::Buf => (args == 1).then_some(kind),
        GateKind::Xor2 | GateKind::Xnor2 => (args == 2).then_some(kind),
        GateKind::Nand(_) => fit(args).map(GateKind::Nand),
        GateKind::Nor(_) => fit(args).map(GateKind::Nor),
        GateKind::And(_) => fit(args).map(GateKind::And),
        GateKind::Or(_) => fit(args).map(GateKind::Or),
    }
}

fn fit(args: usize) -> Option<u8> {
    (2..=GateKind::MAX_ARITY)
        .contains(&args)
        .then_some(args as u8)
}

#[cfg(test)]
mod fuzz_tests {
    //! Deterministic seeded fuzzing — the in-tree replacement for the
    //! proptest properties this module used to hold.

    use super::*;
    use crate::generators::{random_dag, RandomDagSpec};
    use svtox_exec::rng::Xoshiro256pp;

    /// The parser never panics: arbitrary junk yields Ok or a structured
    /// error.
    #[test]
    fn parser_never_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5eed_beac);
        for _ in 0..256 {
            let len = rng.gen_index(201);
            let text: String = (0..len)
                .map(|_| {
                    // Printable ASCII plus newlines, like the old strategy.
                    let c = rng.gen_index(96);
                    if c == 95 {
                        '\n'
                    } else {
                        char::from(b' ' + c as u8)
                    }
                })
                .collect();
            let _ = parse_bench(&text);
        }
    }

    /// Nearly-valid inputs (mutated c17) never panic either.
    #[test]
    fn mutated_bench_never_panics() {
        let base = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOT(x)\n";
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for _ in 0..256 {
            let mut bytes = base.as_bytes().to_vec();
            let pos = rng.gen_index(180);
            let byte = 32 + rng.gen_index(95) as u8;
            if pos < bytes.len() {
                bytes[pos] = byte;
            }
            let text = String::from_utf8(bytes).expect("printable mutation");
            let _ = parse_bench(&text);
        }
    }

    /// Serialize → parse round-trips preserve structure and function.
    #[test]
    fn bench_roundtrip_preserves_function() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..16 {
            let mut spec = RandomDagSpec::new("rt", 8, 4, 50, 6);
            spec.seed = rng.next_u64() % 5000;
            let bits = rng.next_u64();
            let original = random_dag(&spec).unwrap();
            let reparsed = parse_bench(&original.to_bench()).unwrap();
            assert_eq!(reparsed.num_gates(), original.num_gates());
            assert_eq!(reparsed.num_inputs(), original.num_inputs());
            assert_eq!(reparsed.num_outputs(), original.num_outputs());
            assert_eq!(reparsed.depth(), original.depth());
            let vector: Vec<bool> = (0..original.num_inputs())
                .map(|i| bits >> (i % 64) & 1 == 1)
                .collect();
            assert_eq!(original.evaluate(&vector), reparsed.evaluate(&vector));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "
# c17 — the classic 6-gate ISCAS-85 warm-up circuit
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let n = parse_bench(C17).unwrap();
        assert_eq!(n.num_inputs(), 5);
        assert_eq!(n.num_outputs(), 2);
        assert_eq!(n.num_gates(), 6);
        assert_eq!(n.depth(), 3);
        assert!(n.is_primitive());
    }

    #[test]
    fn arity_follows_operand_count() {
        let n =
            parse_bench("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NAND(a, b, c)\n").unwrap();
        assert_eq!(n.gate(n.topo_order()[0]).kind(), GateKind::Nand(3));
    }

    #[test]
    fn accepts_not_and_buff_aliases() {
        let n = parse_bench("INPUT(a)\nOUTPUT(y)\nx = NOT(a)\ny = BUFF(x)\n").unwrap();
        assert_eq!(n.num_gates(), 2);
    }

    #[test]
    fn forward_references_are_fine() {
        let n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n").unwrap();
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn dff_lines_extract_combinational_core() {
        // The classic s27 structure, abbreviated: 3 flip-flops.
        let n = parse_bench(
            "INPUT(G0)\nINPUT(G1)\nOUTPUT(G17)\n\
             G5 = DFF(G10)\nG6 = DFF(G11)\n\
             G10 = NAND(G0, G5)\nG11 = NOR(G1, G6)\nG17 = NAND(G10, G11)\n",
        )
        .unwrap();
        // 2 real PIs + 2 pseudo-PIs (Q pins).
        assert_eq!(n.num_inputs(), 4);
        // 1 real PO + 2 pseudo-POs (D pins).
        assert_eq!(n.num_outputs(), 3);
        assert_eq!(n.num_gates(), 3);
        // The extracted core is purely combinational and acyclic.
        assert!(n.is_primitive());
    }

    #[test]
    fn dff_feedback_loops_are_broken_by_extraction() {
        // A flip-flop feeding itself through an inverter is fine
        // combinationally: the loop is cut at the register boundary.
        let n =
            parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = NOT(q)\ny = NAND(a, q)\n").unwrap();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.num_inputs(), 2);
    }

    #[test]
    fn error_on_bad_lines() {
        assert!(matches!(
            parse_bench("INPUT(a)\ngarbage line\n"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_bench("INPUT(a)\ny = NAND(a\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_bench("INPUT(a)\ny = FROB(a)\n"),
            Err(NetlistError::UnsupportedKind(_))
        ));
        assert!(matches!(
            parse_bench("INPUT(a)\ny = NOT(a, a)\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn error_on_arity_overflow() {
        // `fit()` caps fan-in at MAX_ARITY; one operand past the cap must
        // be a typed parse error naming the offending arity, not a panic
        // or a silent truncation.
        let wide = (0..=GateKind::MAX_ARITY)
            .map(|i| format!("a{i}"))
            .collect::<Vec<_>>();
        let mut text = String::new();
        for name in &wide {
            text.push_str(&format!("INPUT({name})\n"));
        }
        text.push_str(&format!("OUTPUT(y)\ny = NAND({})\n", wide.join(", ")));
        match parse_bench(&text) {
            Err(NetlistError::Parse { message, .. }) => {
                assert!(
                    message.contains(&format!("cannot take {} inputs", wide.len())),
                    "unexpected message: {message}"
                );
            }
            other => panic!("expected arity parse error, got {other:?}"),
        }
        // The cap itself is fine.
        let at_cap = &wide[..GateKind::MAX_ARITY];
        let mut text = String::new();
        for name in at_cap {
            text.push_str(&format!("INPUT({name})\n"));
        }
        text.push_str(&format!("OUTPUT(y)\ny = NAND({})\n", at_cap.join(", ")));
        assert!(parse_bench(&text).is_ok());
        // And a one-operand NAND is below the floor.
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn error_on_duplicate_net_definition() {
        // Two gates driving the same net is a structural MultipleDrivers
        // error from the builder, surfaced through the parser.
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"),
            Err(NetlistError::MultipleDrivers(name)) if name == "y"
        ));
    }

    #[test]
    fn error_on_redriven_internal_and_input_nets() {
        // The duplicate-driver check covers *every* net, not just named
        // outputs: an internal wire re-driven by a later line...
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(y)\nw = NOT(a)\nw = BUFF(a)\ny = NAND(a, w)\n"),
            Err(NetlistError::MultipleDrivers(name)) if name == "w"
        ));
        // ...and a gate re-driving a primary input.
        assert!(matches!(
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nb = NOT(a)\ny = NAND(a, b)\n"),
            Err(NetlistError::MultipleDrivers(name)) if name == "b"
        ));
    }

    #[test]
    fn dff_edge_cases_are_typed_errors() {
        // Multi-bit and empty DFF operand lists are malformed, not
        // silently treated as a net named "a, b" (or "").
        assert!(matches!(
            parse_bench("INPUT(x)\nOUTPUT(y)\nq = DFF(a, b)\ny = NAND(x, q)\n"),
            Err(NetlistError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_bench("INPUT(x)\nOUTPUT(y)\nq = DFF()\ny = NAND(x, q)\n"),
            Err(NetlistError::Parse { line: 3, .. })
        ));
        // A flip-flop output that is already driven by a gate.
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = NOT(a)\nq = DFF(a)\n"),
            Err(NetlistError::Parse { line: 4, .. })
        ));
        // And the converse: a gate redriving a flip-flop's pseudo-input.
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\nq = NOT(a)\n"),
            Err(NetlistError::MultipleDrivers(name)) if name == "q"
        ));
        // Degenerate self-loop `q = DFF(q)`: the extraction cuts it at the
        // register boundary, so it is legal (q is both pseudo-PI and
        // pseudo-PO) — pin that it stays that way.
        let n = parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(q)\ny = NAND(a, q)\n").unwrap();
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn error_on_undefined_output() {
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n"),
            Err(NetlistError::UndefinedSignal(_))
        ));
    }

    #[test]
    fn error_on_duplicate_input() {
        assert!(matches!(
            parse_bench("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let n = parse_bench("\n# header\nINPUT(a) # trailing\n\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn a_wide_inverter_array_parses_and_maps() {
        // 32,768 inputs each driving one inverter that is a primary
        // output: about 1.5 MiB of text, every line an I/O declaration or
        // a gate on one, so a per-call scan of the input or output list
        // would make parsing and mapping quadratic.
        const N: usize = 32_768;
        let mut text = String::new();
        for k in 0..N {
            text.push_str(&format!("INPUT(a{k})\n"));
        }
        for k in 0..N {
            text.push_str(&format!("OUTPUT(y{k})\n"));
        }
        for k in 0..N {
            text.push_str(&format!("y{k} = NOT(a{k})\n"));
        }
        let parsed = parse_bench(&text).unwrap();
        let mapped = crate::map_to_primitives(&parsed, crate::MappingOptions::default()).unwrap();
        for n in [&parsed, &mapped] {
            assert_eq!(n.num_inputs(), N);
            assert_eq!(n.num_outputs(), N);
            assert_eq!(n.num_gates(), N);
            for k in 0..N {
                let (pi, po) = (n.inputs()[k], n.outputs()[k]);
                assert_eq!(n.net(pi).name(), format!("a{k}"));
                assert!(n.is_primary_input(pi) && !n.is_primary_output(pi));
                assert!(n.is_primary_output(po) && !n.is_primary_input(po));
                let inv = n.gate(n.net(po).driver().unwrap());
                assert_eq!((inv.kind(), inv.inputs()), (GateKind::Inv, &[pi][..]));
            }
        }
        // Mapping names its nets afresh; parsing keeps the text's names.
        for (k, &po) in parsed.outputs().iter().enumerate() {
            assert_eq!(parsed.net(po).name(), format!("y{k}"));
        }
    }
}
