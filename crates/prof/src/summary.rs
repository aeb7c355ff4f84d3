//! `perf report`-style exporters: a ranked hot-block text table for
//! humans and an NDJSON stream for scripting. Both render the same
//! phase-summed ranking ([`Analysis::ranked`]) and integer basis-point
//! shares, so they are byte-stable for bit-identical profiles.

use crate::Analysis;
use hb_core::StallKind;
use hb_mem::json::escape;
use std::fmt::Write as _;

/// Renders a fixed-width ranked table of the `top` hottest blocks, with
/// header totals, per-kind stall columns folded to the dominant kinds,
/// and the block leader's disassembly as an anchor.
pub fn report_text(a: &Analysis, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# kernel {}  cycles {}  retired {}  stalled {}  tile-cycles {}",
        a.kernel,
        a.cycles,
        a.retired,
        a.stalled,
        a.tile_cycles()
    );
    let _ = writeln!(
        out,
        "{:>5}  {:<10}  {:>6}  {:>12}  {:>12}  {:<24}  leader",
        "cyc%", "block", "instrs", "retired", "stalled", "top stalls"
    );
    for row in a.top(top) {
        let bp = a.share_bp(row);
        // The two heaviest stall kinds, as `kind:cycles` tags.
        let mut kinds: Vec<(StallKind, u64)> = StallKind::ALL
            .iter()
            .map(|&k| (k, row.stalls[k as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        kinds.sort_by(|x, y| y.1.cmp(&x.1).then((x.0 as usize).cmp(&(y.0 as usize))));
        let tags = kinds
            .iter()
            .take(2)
            .map(|(k, n)| format!("{}:{n}", k.label()))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:>4}.{:02}  {:<10}  {:>6}  {:>12}  {:>12}  {:<24}  {}",
            bp / 100,
            bp % 100,
            row.label(),
            row.end - row.start,
            row.retired,
            row.stall_cycles(),
            if tags.is_empty() {
                "-".to_owned()
            } else {
                tags
            },
            a.leader_disasm(row)
        );
    }
    out
}

/// Renders the analysis as NDJSON: one `"type":"profile"` header line,
/// then one `"type":"block"` line per ranked block (every block, not
/// just the top — consumers truncate). Stall objects carry only nonzero
/// kinds. Shares are integer basis points of tile-cycles.
pub fn to_ndjson(a: &Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"profile\",\"kernel\":\"{}\",\"cycles\":{},\"retired\":{},\
         \"stalled\":{},\"tile_cycles\":{},\"phases\":{},\"blocks\":{}}}",
        escape(&a.kernel),
        a.cycles,
        a.retired,
        a.stalled,
        a.tile_cycles(),
        a.phases.len(),
        a.ranked.len()
    );
    for (rank, row) in a.ranked.iter().enumerate() {
        let stalls = StallKind::ALL
            .iter()
            .filter(|&&k| row.stalls[k as usize] > 0)
            .map(|&k| format!("\"{}\":{}", k.label(), row.stalls[k as usize]))
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "{{\"type\":\"block\",\"rank\":{rank},\"block\":{},\"pc\":\"{:#06x}\",\
             \"instrs\":{},\"retired\":{},\"stall_cycles\":{},\"share_bp\":{},\
             \"stalls\":{{{stalls}}}}}",
            row.block,
            row.start_pc,
            row.end - row.start,
            row.retired,
            row.stall_cycles(),
            a.share_bp(row)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Analysis;
    use hb_core::{Machine, MachineConfig};
    use std::sync::Arc;

    fn analyzed() -> Analysis {
        let mut asm = hb_asm::Assembler::new();
        use hb_isa::Gpr::*;
        asm.li(T0, 4);
        let top = asm.here();
        asm.addi(T0, T0, -1);
        asm.bnez(T0, top);
        asm.ecall();
        let program = Arc::new(asm.assemble(0).unwrap());

        let cfg = MachineConfig {
            cell_dim: hb_core::CellDim { x: 2, y: 1 },
            ..MachineConfig::baseline_16x8()
        };
        let mut machine = Machine::new(cfg);
        machine.set_profile(true);
        machine.launch(0, &program, &[]);
        machine.run(10_000).unwrap();
        let run = crate::ProfRun::capture(&machine, program).unwrap();
        Analysis::analyze("loopy", &run)
    }

    #[test]
    fn every_ndjson_line_is_valid_and_shares_are_bounded() {
        let a = analyzed();
        let doc = super::to_ndjson(&a);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 1 + a.ranked.len());
        for line in &lines {
            hb_obs::json::validate(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        }
        assert!(lines[0].starts_with("{\"type\":\"profile\",\"kernel\":\"loopy\""));
        assert!(lines[1].contains("\"rank\":0"), "{doc}");
        let total_bp: u64 = a.ranked.iter().map(|r| a.share_bp(r)).sum();
        assert!(total_bp <= 10_000, "{doc}");
    }

    #[test]
    fn report_text_leads_with_totals_and_ranks_by_cycles() {
        let a = analyzed();
        let doc = super::report_text(&a, 5);
        let mut lines = doc.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("# kernel loopy"), "{header}");
        assert!(header.contains(&format!("tile-cycles {}", a.tile_cycles())));
        let _columns = lines.next().unwrap();
        let first = lines.next().unwrap();
        assert!(first.contains(&a.ranked[0].label()), "{doc}");
        // Rows are cycle-sorted descending.
        let cycles: Vec<u64> = a.ranked.iter().map(|r| r.cycles()).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(cycles, sorted);
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        // The kernel name is the one free-form string the exporter emits.
        let mut a = analyzed();
        a.kernel = "a\"b\\c\n\u{1}".to_owned();
        let doc = super::to_ndjson(&a);
        let header = doc.lines().next().unwrap();
        assert!(header.contains(r#""kernel":"a\"b\\c\n\u0001""#), "{header}");
        hb_obs::json::validate(header).unwrap();
    }
}
