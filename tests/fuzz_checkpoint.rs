//! No-panic fuzzing of the checkpoint decoders: a mid-run 2x2 SGEMM
//! checkpoint (guest profile on, a telemetry sampler attached, a fault
//! plan with one pending entry per site kind) is mutated with seeded
//! `hb-rng` draws — truncation in every section, single-bit flips, length
//! fields inflated to `u64::MAX` and to one more than the bytes that
//! follow, and every offset and length word of the `DRAM` section's extent
//! list rewritten — and fed to `Machine::restore_checkpoint` (the raw payload, no
//! container hash in front of it) and to `hb_ckpt::decode` (the container,
//! both as mutated and re-sealed with a fresh hash so the framing parser
//! sees the damage).
//!
//! Property: every input yields `Ok` or a typed `SnapError`/`CkptError` —
//! never a panic — and no single allocation made while decoding is larger
//! than the input itself.

use hammerblade::ckpt::{self, CkptError};
use hammerblade::core::observe::MachineObserver;
use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::fault::{InjectionPlan, Site};
use hammerblade::kernels::{launch_on, SizeClass};
use hammerblade::mem::SnapError;
use hammerblade::obs::{Keep, Sampler, Telemetry};
use hammerblade::rng::Rng;
use hb_serve::campaign_kernel;
use std::sync::{Arc, Mutex};

mod alloc_watch;
use alloc_watch::check;

const SECTION_TAGS: [&[u8; 4]; 15] = [
    b"MACH", b"CELL", b"TILE", b"ICAC", b"PROF", b"BNOD", b"BANK", b"NET0", b"STRP", b"HBM2",
    b"DRAM", b"BARR", b"SCHD", b"FABR", b"SAMP",
];

fn cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 2, y: 2 },
        // A small DRAM image keeps the structured sections a large share of
        // the payload, and each of the thousands of restores cheap.
        dram_bytes_per_cell: 1 << 18,
        ..MachineConfig::baseline_16x8()
    }
}

fn sampler(cfg: &MachineConfig) -> Sampler {
    let store = Arc::new(Mutex::new(Telemetry::default()));
    Sampler::new(cfg, 256, Keep::All, store)
}

/// The sampler as a restore target only. A mutated payload that still
/// decodes is a well-formed checkpoint of a state no run produced (a
/// flipped counter bit, say); what the simulator makes of such a state is
/// not the decoders' contract, so nothing here samples it.
#[derive(Debug)]
struct DecodeOnly(Sampler);

impl MachineObserver for DecodeOnly {
    fn sample(&mut self, _machine: &mut Machine) {}

    fn next_due(&self) -> u64 {
        u64::MAX
    }

    fn finish(&mut self, _machine: &mut Machine) {}

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.0.restore(bytes)
    }
}

fn restore_target() -> Machine {
    let mut machine = Machine::new(cfg());
    machine.set_profile(true);
    machine.attach_observer(Box::new(DecodeOnly(sampler(&cfg()))));
    machine
}

/// The seeded SPM-blocked SGEMM, 997 cycles in: packets in flight, cache
/// lines dirty, tiles parked, a telemetry window open.
fn mid_run_machine() -> Machine {
    let mut machine = Machine::new(cfg());
    machine.set_profile(true);
    machine.attach_observer(Box::new(sampler(&cfg())));
    let sgemm = campaign_kernel("sgemm").expect("a campaign kernel");
    launch_on(&mut machine, sgemm, SizeClass::Small);
    // A stray word far above the kernel's buffers: the `DRAM` section
    // lists two extents.
    machine
        .cell_mut(0)
        .dram_mut()
        .write_u32(0x3_f000, 0x5eed_f00d);
    // One pending entry per site kind, far past the capture cycle.
    let sites = [
        "regfile(0,1,1,5,3)",
        "spm(0,1,1,9,31)",
        "icache(0,1,1,7)",
        "noc(0,1,1,3,1)",
        "hbm(0,50)",
        "freeze(0,1,1,11)",
    ];
    machine.set_injection_plan(&InjectionPlan::explicit(
        sites.map(|s| (1 << 40, Site::from_canonical(s).expect("a canonical site"))),
    ));
    while machine.cycle() < 997 {
        machine.tick();
    }
    assert!(
        !machine.all_done(),
        "the checkpointed SGEMM must be mid-run"
    );
    machine
}

fn check_restore(what: &str, payload: &[u8]) {
    let mut target = restore_target();
    check(what, payload, || target.restore_checkpoint(payload));
}

fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        h = (h ^ u128::from(b)).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    h
}

/// Replaces the container's trailing hash with the hash of its (mutated)
/// body, so `decode` parses the framing instead of stopping at `Corrupt`.
fn reseal(container: &mut [u8]) {
    let body = container.len() - 16;
    let hash = fnv1a128(&container[..body]);
    container[body..].copy_from_slice(&hash.to_le_bytes());
}

/// The little-endian `u64` at `bytes[at..]`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// Overwrites `bytes[at..]` with `patch`, runs `run` and undoes it.
fn with_patch(bytes: &mut [u8], at: usize, patch: &[u8], run: impl FnOnce(&[u8])) {
    let saved = bytes[at..at + patch.len()].to_vec();
    bytes[at..at + patch.len()].copy_from_slice(patch);
    run(bytes);
    bytes[at..at + patch.len()].copy_from_slice(&saved);
}

#[test]
fn mutated_checkpoints_never_panic_or_overallocate() {
    let machine = mid_run_machine();
    let mut payload = machine.save_checkpoint();
    let container = ckpt::encode(&machine);
    drop(machine);
    let len = payload.len();
    check_restore("pristine payload", &payload);
    restore_target()
        .restore_checkpoint(&payload)
        .expect("the pristine payload restores");

    // Where every section starts: truncation and inflation aim there.
    let sections: Vec<usize> = (0..len - 4)
        .filter(|&at| {
            SECTION_TAGS
                .iter()
                .any(|tag| payload[at..at + 4] == tag[..])
        })
        .collect();
    for tag in SECTION_TAGS {
        assert!(
            sections.iter().any(|&at| payload[at..at + 4] == tag[..]),
            "no {} section in the payload",
            String::from_utf8_lossy(tag)
        );
    }
    let mut rng = Rng::seed_from_u64(0xC4B7_0013);

    // Truncation: inside the tag, the first fields and the body of every
    // section, every short prefix, and seeded cuts anywhere.
    let mut cuts: Vec<usize> = (0..64).chain([len - 1]).collect();
    for &at in &sections {
        cuts.extend([at, at + 2, at + 4, at + 11, at + 12, at + 40]);
    }
    cuts.extend((0..200).map(|_| rng.below(len as u64) as usize));
    for cut in cuts.into_iter().filter(|&c| c < len) {
        let what = format!("payload truncated to {cut} of {len} bytes");
        check_restore(&what, &payload[..cut]);
    }

    // Single-bit flips: half anywhere (mostly memory images, which must
    // restore), half in the fields that open a section.
    for i in 0..600 {
        let at = if i % 2 == 0 {
            rng.below(len as u64) as usize
        } else {
            let section = sections[rng.below(sections.len() as u64) as usize];
            (section + rng.below(160) as usize).min(len - 1)
        };
        let bit = rng.below(8) as u8;
        let flipped = [payload[at] ^ (1 << bit)];
        with_patch(&mut payload, at, &flipped, |bytes| {
            check_restore(&format!("payload bit {bit} of byte {at} flipped"), bytes);
        });
    }

    // Length inflation: every offset among the fields that open a section
    // is treated as a `u64` length and set to `u64::MAX` and to one more
    // than the bytes that follow it.
    let mut fields: Vec<usize> = Vec::new();
    for &at in &sections {
        fields.extend((at + 4..at + 44).filter(|&f| f + 8 <= len));
    }
    fields.extend((0..200).map(|_| rng.below((len - 8) as u64) as usize));
    for at in fields {
        for inflated in [u64::MAX, (len - (at + 8) + 1) as u64] {
            with_patch(&mut payload, at, &inflated.to_le_bytes(), |bytes| {
                check_restore(&format!("payload length at {at} set to {inflated}"), bytes);
            });
        }
    }

    // The `DRAM` section is the one whose framing is data-dependent: an
    // image length, `(offset, length, bytes)` per non-zero extent, a closing
    // offset. Every one of those words is set to the values its checks turn
    // on — nothing, everything, the image length and its neighbours, a block
    // either way, its own neighbours — and to seeded ones.
    let image = u64::from(cfg().dram_bytes_per_cell);
    let dram = sections
        .iter()
        .map(|&at| at + 4)
        .find(|&at| payload[at - 4..at] == b"DRAM"[..] && word(&payload, at) == image)
        .expect("a DRAM section");
    let mut words = vec![dram];
    let mut at = dram + 8;
    while word(&payload, at) != image {
        words.extend([at, at + 8]);
        at += 16 + word(&payload, at + 8) as usize;
    }
    words.push(at);
    assert!(words.len() >= 6, "the image has at least two extents");
    for &at in &words {
        let was = word(&payload, at);
        let aimed = [0, 1, 4096, image - 1, image, image + 1, u64::MAX];
        let nearby = [
            was.wrapping_sub(1),
            was + 1,
            was.wrapping_sub(4096),
            was + 4096,
        ];
        let seeded = [rng.below(image), rng.below(2 * image), rng.next_u64()];
        for value in aimed.into_iter().chain(nearby).chain(seeded) {
            with_patch(&mut payload, at, &value.to_le_bytes(), |bytes| {
                check_restore(&format!("DRAM word at {at} set to {value}"), bytes);
            });
        }
    }
    // And the property is met by refusing, not by luck: the second extent
    // claiming the first one's offset is out of order.
    let first = payload[words[1]..words[1] + 8].to_vec();
    with_patch(&mut payload, words[3], &first, |bytes| {
        assert_eq!(
            restore_target().restore_checkpoint(bytes),
            Err(SnapError::Bad("Dram extent out of order or out of range"))
        );
    });

    // The container: as mutated (the hash or an earlier check catches it)
    // and re-sealed (the framing parser meets the damage itself).
    let mut container = container;
    let clen = container.len();
    let decode = |what: &str, bytes: &[u8]| check(what, bytes, || ckpt::decode(bytes));
    decode("pristine container", &container);
    let header = 12 + 8 + cfg().canonical_text().len() + 8 + 8;
    let cuts = (0..header + 32).chain((0..100).map(|_| rng.below(clen as u64) as usize));
    for cut in cuts.chain([clen - 17, clen - 16, clen - 1]) {
        decode(&format!("container truncated to {cut}"), &container[..cut]);
        let mut resealed = container[..cut].to_vec();
        if cut >= 16 {
            reseal(&mut resealed);
            decode(
                &format!("container truncated to {cut}, re-sealed"),
                &resealed,
            );
        }
    }
    for _ in 0..200 {
        let at = match rng.below(2) {
            0 => rng.below(clen as u64) as usize,
            _ => rng.below(header as u64) as usize,
        };
        let flipped = [container[at] ^ (1 << rng.below(8))];
        with_patch(&mut container, at, &flipped, |bytes| {
            decode(&format!("container byte {at} flipped"), bytes);
        });
        let mut resealed = container.clone();
        resealed[at] = flipped[0];
        reseal(&mut resealed);
        decode(
            &format!("container byte {at} flipped, re-sealed"),
            &resealed,
        );
    }
    for at in 12..header {
        for inflated in [u64::MAX, (clen - 16 - (at + 8) + 1) as u64] {
            let mut resealed = container.clone();
            resealed[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            reseal(&mut resealed);
            let what = format!("container length at {at} set to {inflated}, re-sealed");
            decode(&what, &resealed);
            // Whatever decodes must also apply or fail cleanly.
            if let Ok(ckpt) = ckpt::decode(&resealed) {
                let mut target = restore_target();
                check(&what, &resealed, || ckpt::apply(&mut target, &ckpt));
            }
        }
    }
    // A stale version is named as such, before the hash is looked at.
    container[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        ckpt::decode(&container),
        Err(CkptError::Version { found: 1 })
    ));
}
