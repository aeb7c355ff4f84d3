//! No-panic fuzzing of the text decoders: a canonical machine
//! configuration, a six-kind injection plan, a manifest line that embeds
//! both, a job record, a journal entry, the Chrome trace of a short run and
//! an assembler source are mutated with seeded `hb-rng` draws — truncation
//! at every byte, single-bit flips and byte replacements, entries
//! duplicated, dropped and reordered, and every number inflated to
//! `u64::MAX`, one past it and a 30-digit integer — and fed to the decoder
//! that owns the form.
//!
//! Property: every input yields `Ok` or an error message — never a panic —
//! no single allocation made while decoding is larger than the input plus
//! the harness's slack, and whatever decodes re-encodes to a text that
//! decodes to an equal value. A configuration that decodes also builds:
//! `Machine::new` gets through every constructor below it.

use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::fault::InjectionPlan;
use hammerblade::kernels::{by_name, run_on, SizeClass};
use hammerblade::obs::{chrome, json, Keep, Sampler, SharedTelemetry};
use hammerblade::rng::Rng;
use hb_serve::{JobKind, JobRecord, JobSpec, JournalEntry, PlanSpec};
use std::fmt::Debug;

mod alloc_watch;
use alloc_watch::check;

/// One text form: a valid text, what separates its entries, and its codec.
struct Form<'a, T> {
    name: &'a str,
    text: String,
    seps: &'a [char],
    decode: fn(&str) -> Result<T, String>,
    encode: fn(&T) -> String,
    /// What a consumer does next with a decoded value; it must not panic.
    consume: fn(&T),
}

impl<T: PartialEq + Debug> Form<'_, T> {
    /// Decodes `input` under the watch; a value that comes out must
    /// survive its own re-encoding.
    fn feed(&self, what: &str, input: &[u8]) {
        // A consumer reads these forms as UTF-8 text or not at all.
        let input = String::from_utf8_lossy(input);
        let what = format!("{}: {what}", self.name);
        let mut value = None;
        check(&what, input.as_bytes(), || {
            (self.decode)(&input).map(|v| value = Some(v))
        });
        if let Some(value) = value {
            (self.consume)(&value);
            let again = (self.encode)(&value);
            assert_eq!(
                (self.decode)(&again).as_ref(),
                Ok(&value),
                "{what}: {input:?} decoded, but not back from {again:?}"
            );
        }
    }

    fn fuzz(&self, rng: &mut Rng) {
        let text = self.text.as_bytes();
        let len = text.len();
        self.feed("pristine", text);
        assert!(
            (self.decode)(&self.text).is_ok(),
            "{}: the pristine text must decode",
            self.name
        );

        // Truncation: at every byte of a short form, at every byte of the
        // head and at seeded cuts of a long one.
        let cuts = (0..len.min(2048)).chain((0..200).map(|_| rng.below(len as u64) as usize));
        for cut in cuts {
            self.feed(&format!("truncated to {cut} of {len}"), &text[..cut]);
        }

        // Damage: a flipped bit, a replaced byte.
        for _ in 0..600 {
            let at = rng.below(len as u64) as usize;
            let mut bytes = text.to_vec();
            bytes[at] ^= 1 << rng.below(8);
            self.feed(&format!("a bit of byte {at} flipped"), &bytes);
            bytes[at] = rng.below(256) as u8;
            self.feed(&format!("byte {at} replaced"), &bytes);
        }

        // Entries duplicated, dropped and swapped, at every separator level
        // (every entry of a short form, seeded picks of a long one).
        for &sep in self.seps {
            let parts: Vec<&str> = self.text.split(sep).collect();
            let join = |parts: &[&str]| parts.join(&sep.to_string()).into_bytes();
            let picks: Vec<usize> = match parts.len() {
                n @ 0..=64 => (0..n).collect(),
                n => (0..64).map(|_| rng.below(n as u64) as usize).collect(),
            };
            for i in picks {
                let mut edited = parts.clone();
                edited.insert(i, parts[i]);
                self.feed(&format!("{sep:?}-entry {i} duplicated"), &join(&edited));
                edited = parts.clone();
                edited.remove(i);
                self.feed(&format!("{sep:?}-entry {i} dropped"), &join(&edited));
                edited = parts.clone();
                edited.swap(i, rng.below(parts.len() as u64) as usize);
                self.feed(&format!("{sep:?}-entry {i} swapped"), &join(&edited));
            }
        }

        // Inflation: every run of digits becomes a number no field holds.
        let mut at = 0;
        while at < len {
            let digits = text[at..].iter().take_while(|b| b.is_ascii_digit()).count();
            for huge in [
                "18446744073709551615",
                "18446744073709551616",
                "999999999999999999999999999999",
            ] {
                let mut bytes = text[..at].to_vec();
                bytes.extend_from_slice(huge.as_bytes());
                bytes.extend_from_slice(&text[at + digits..]);
                if digits > 0 {
                    self.feed(&format!("number at {at} inflated to {huge}"), &bytes);
                }
            }
            at += digits.max(1);
        }
    }
}

fn config() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        disabled_tiles: vec![(1, 1), (0, 1)],
        ..MachineConfig::baseline_16x8()
    }
}

/// One injection of each site kind, the last one permanent.
const PLAN: &str = "planv=1;seed=0;inj=10@regfile(0,1,1,5,3)|20@spm(0,1,1,9,31)|30@icache(0,1,1,7)\
    |40@noc(0,1,1,3,1)|50@hbm(0,50)|60@freeze(0,1,1,18446744073709551615)";

fn record() -> JobRecord {
    JobRecord {
        hash: "00ff".repeat(8),
        kind: "fault".to_owned(),
        kernel: "sgemm".to_owned(),
        seed: 7,
        outcome: "hang".to_owned(),
        site: "tile-freeze".to_owned(),
        inj_cycle: 60,
        cycles: 0,
        instrs: 890,
        dram_digest: 0xdead_beef_cafe_f00d,
        checks: "a\"b\\c\n\u{1}é".to_owned(),
        retries: 2,
        artifacts: "ckpt/hang-00ff.ckpt".to_owned(),
    }
}

/// The Chrome trace of a 2x2 SGEMM, cut down to its first and last 25
/// lines (the exporter writes one event per line): the document frame and
/// every event kind, in a few KB.
fn chrome_trace() -> String {
    let sgemm = by_name("SGEMM").expect("the registry has SGEMM");
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 2, y: 2 },
        ..MachineConfig::baseline_16x8()
    };
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg.clone());
    machine.attach_observer(Box::new(Sampler::new(&cfg, 1000, Keep::All, store.clone())));
    run_on(&mut machine, sgemm.as_ref(), SizeClass::Tiny).expect("sgemm runs");
    drop(machine); // flushes the final partial window
    let doc = chrome::to_string(&store.lock().unwrap());
    let lines: Vec<&str> = doc.lines().collect();
    let doc = [&lines[..25], &lines[lines.len() - 25..]]
        .concat()
        .join("\n");
    for kind in ["\"ph\":\"M\"", "\"ph\":\"C\"", "\"ph\":\"i\""] {
        assert!(doc.contains(kind), "no {kind} event in the cut-down trace");
    }
    doc
}

/// An assembler source with everything the text parser accepts: labels
/// (own line and inline), both comment styles, pseudo-instructions, hex and
/// negative immediates, memory operands, FP and atomic mnemonics.
const ASM_SOURCE: &str = "\
// dot product, then a mailbox bump
start:  li   t0, 16          # trip count
        lui  t1, 0x80000
        li   t2, -2048
        fmv.w.x fa0, zero
loop:   flw  fa1, 0(a0)
        flw  fa2, 4(a0)
        fmadd.s fa0, fa1, fa2, fa0
        addi a0, a0, 8
        addi t0, t0, -1
        bnez t0, loop
        fsw  fa0, 0(a1)
        amoadd.w t3, t2, (a2)
        beq  t3, zero, done
        jal  ra, start
done:   fence
        ecall
";

#[test]
fn mutated_texts_never_panic_or_overallocate() {
    let mut rng = Rng::seed_from_u64(0x7E87_0016);

    Form {
        name: "config",
        text: config().canonical_text(),
        seps: &[';', ',', '+'],
        decode: MachineConfig::from_canonical_text,
        encode: MachineConfig::canonical_text,
        consume: |cfg| drop(Machine::new(cfg.clone())),
    }
    .fuzz(&mut rng);

    Form {
        name: "plan",
        text: PLAN.to_owned(),
        seps: &[';', '|', ','],
        decode: InjectionPlan::from_canonical_text,
        encode: InjectionPlan::canonical_text,
        consume: |_| {},
    }
    .fuzz(&mut rng);

    let spec = JobSpec {
        kind: JobKind::Fault,
        kernel: "sgemm".to_owned(),
        seed: 7,
        plan: PlanSpec::Explicit(InjectionPlan::from_canonical_text(PLAN).unwrap()),
        config: config(),
        label: "a labelled job".to_owned(),
    };
    Form {
        name: "manifest line",
        text: spec.manifest_line(),
        seps: &[' ', ';'],
        decode: JobSpec::from_manifest_line,
        encode: JobSpec::manifest_line,
        consume: |_| {},
    }
    .fuzz(&mut rng);

    Form {
        name: "record",
        text: record().to_json_line(),
        seps: &[',', ':'],
        decode: JobRecord::from_json_line,
        encode: JobRecord::to_json_line,
        consume: |_| {},
    }
    .fuzz(&mut rng);

    let entry = JournalEntry {
        hash: "00ff".repeat(8),
        status: "failed".to_owned(),
        detail: "panic: \"boom\"\n".to_owned(),
        retries: 3,
    };
    Form {
        name: "journal line",
        text: entry.to_json_line(),
        seps: &[',', ':'],
        decode: JournalEntry::from_json_line,
        encode: JournalEntry::to_json_line,
        consume: |_| {},
    }
    .fuzz(&mut rng);

    Form {
        name: "assembler source",
        text: ASM_SOURCE.to_owned(),
        seps: &['\n', ',', ' '],
        decode: |src| hammerblade::asm::parse(src).map_err(|e| e.to_string()),
        // One instruction per line, as `Program::disassemble` prints them
        // after its pc and word columns (`tests/asm_roundtrip.rs`).
        encode: |program| {
            let lines: Vec<String> = program.instrs().iter().map(|i| i.to_string()).collect();
            lines.join("\n")
        },
        consume: |_| {},
    }
    .fuzz(&mut rng);

    // Nothing to re-encode: the validator's value is "this is JSON".
    Form {
        name: "chrome trace",
        text: chrome_trace(),
        seps: &['{', ','],
        decode: json::validate,
        encode: |()| "null".to_owned(),
        consume: |_| {},
    }
    .fuzz(&mut rng);
}
