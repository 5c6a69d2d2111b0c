//! The record codec against the `format!`-based writers and the
//! `Vec`-per-line parser it replaced, kept here as reference functions.
//! Checkpoints written by one version are read and re-exported by
//! another, so every byte must agree.
//!
//! Run in release for the full case counts in a few seconds:
//!
//! ```bash
//! cargo test --release -p qufi-core --test codec
//! ```

use qufi_core::fault::{FaultGrid, InjectionPoint};
use qufi_core::report::{records_to_csv, Heatmap};
use qufi_core::serialize::{
    campaign_to_json, double_records_from_csv, double_records_to_csv, heatmap_to_json, json,
    push_fixed, records_from_csv, records_to_json, CsvError,
};
use qufi_core::{CampaignResult, DoubleInjectionRecord, InjectionRecord, Severity};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Reference implementations: the writers and parser as they were before
// the codec, verbatim in behaviour.

fn ref_severity(qvf: f64) -> &'static str {
    match Severity::classify(qvf) {
        Severity::Masked => "masked",
        Severity::Dubious => "dubious",
        Severity::Sdc => "sdc",
    }
}

fn ref_records_to_csv(records: &[InjectionRecord]) -> String {
    let mut out = String::from("op_index,qubit,theta,phi,qvf,severity\n");
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{:.9},{:.9},{:.6},{}",
            r.point.op_index,
            r.point.qubit,
            r.theta,
            r.phi,
            r.qvf,
            ref_severity(r.qvf)
        );
    }
    out
}

fn ref_num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn ref_array<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn ref_records_to_json(records: &[InjectionRecord]) -> String {
    ref_array(records.iter().map(|r| {
        format!(
            "{{\"op_index\":{},\"qubit\":{},\"theta\":{},\"phi\":{},\"qvf\":{},\"severity\":{}}}",
            r.point.op_index,
            r.point.qubit,
            ref_num(r.theta),
            ref_num(r.phi),
            ref_num(r.qvf),
            json::string(ref_severity(r.qvf))
        )
    }))
}

fn ref_campaign_to_json(result: &CampaignResult) -> String {
    let (masked, dubious, sdc) = result.severity_counts();
    format!(
        "{{\"circuit\":{},\"golden\":{},\"baseline_qvf\":{},\"mean_qvf\":{},\
         \"stddev_qvf\":{},\"severity\":{{\"masked\":{masked},\"dubious\":{dubious},\
         \"sdc\":{sdc}}},\"grid\":{{\"thetas\":{},\"phis\":{}}},\"records\":{}}}",
        json::string(&result.circuit_name),
        ref_array(result.golden.iter().map(|g| g.to_string())),
        ref_num(result.baseline_qvf),
        ref_num(result.mean_qvf()),
        ref_num(result.stddev_qvf()),
        ref_array(result.grid.thetas.iter().map(|&t| ref_num(t))),
        ref_array(result.grid.phis.iter().map(|&p| ref_num(p))),
        ref_records_to_json(&result.records),
    )
}

fn ref_heatmap_to_csv(hm: &Heatmap) -> String {
    let mut out = String::from("phi,theta,mean_qvf,count\n");
    for (pi, &phi) in hm.phis().iter().enumerate() {
        for (ti, &theta) in hm.thetas().iter().enumerate() {
            let v = hm.value(pi, ti);
            let _ = writeln!(
                out,
                "{phi:.6},{theta:.6},{},{}",
                if v.is_nan() {
                    "".to_string()
                } else {
                    format!("{v:.6}")
                },
                hm.count(pi, ti)
            );
        }
    }
    out
}

fn ref_heatmap_to_json(hm: &Heatmap) -> String {
    let mut values = Vec::new();
    let mut counts = Vec::new();
    for pi in 0..hm.phis().len() {
        for ti in 0..hm.thetas().len() {
            values.push(ref_num(hm.value(pi, ti)));
            counts.push(hm.count(pi, ti).to_string());
        }
    }
    format!(
        "{{\"thetas\":{},\"phis\":{},\"values\":{},\"counts\":{}}}",
        ref_array(hm.thetas().iter().map(|&t| ref_num(t))),
        ref_array(hm.phis().iter().map(|&p| ref_num(p))),
        ref_array(values),
        ref_array(counts),
    )
}

fn ref_double_records_to_csv(records: &[DoubleInjectionRecord]) -> String {
    let mut out = String::from("op_index,qubit,neighbor,theta0,phi0,theta1,phi1,qvf\n");
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
            r.point.op_index, r.point.qubit, r.neighbor, r.theta0, r.phi0, r.theta1, r.phi1, r.qvf
        );
    }
    out
}

fn ref_field<T: std::str::FromStr>(
    fields: &[&str],
    idx: usize,
    line: usize,
    name: &str,
) -> Result<T, CsvError> {
    let bad = |reason: String| CsvError { line, reason };
    fields
        .get(idx)
        .ok_or_else(|| bad(format!("missing field {name}")))?
        .trim()
        .parse::<T>()
        .map_err(|_| bad(format!("bad {name} value")))
}

fn ref_records_from_csv(text: &str) -> Result<Vec<InjectionRecord>, CsvError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if i == 0 {
            if !line.starts_with("op_index,") {
                return Err(CsvError {
                    line: lineno,
                    reason: "unexpected header".into(),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        out.push(InjectionRecord {
            point: InjectionPoint {
                op_index: ref_field(&f, 0, lineno, "op_index")?,
                qubit: ref_field(&f, 1, lineno, "qubit")?,
            },
            theta: ref_field(&f, 2, lineno, "theta")?,
            phi: ref_field(&f, 3, lineno, "phi")?,
            qvf: ref_field(&f, 4, lineno, "qvf")?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Generators.

fn fixed(v: f64, decimals: usize) -> String {
    let mut out = String::new();
    push_fixed(&mut out, v, decimals);
    out
}

fn assert_fixed_matches_std(v: f64) {
    for d in [6, 9] {
        assert_eq!(
            fixed(v, d),
            format!("{v:.d$}"),
            "push_fixed({v:e} = {:#018x}, {d})",
            v.to_bits()
        );
    }
}

/// A finite float of moderate magnitude: random sign and mantissa,
/// binary exponent in [-70, 32) — the range where the exact path does
/// real rounding work (and just past its 1e9 cut-over).
fn moderate(rng: &mut SmallRng) -> f64 {
    let mantissa = rng.next_u64() >> 11;
    let exp = rng.gen_index(102) as i32 - 70;
    let v = mantissa as f64 * 2f64.powi(exp - 53);
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

/// A field value in the shapes records carry: grid angles (repeated,
/// with signed-zero twins), unique random angles, and QVFs that may be
/// NaN, negative or above one.
fn angle(rng: &mut SmallRng) -> f64 {
    match rng.gen_index(6) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen::<f64>() * std::f64::consts::TAU,
        _ => rng.gen_index(25) as f64 * std::f64::consts::PI / 12.0,
    }
}

fn qvf(rng: &mut SmallRng) -> f64 {
    match rng.gen_index(10) {
        0 => f64::NAN,
        1 => -rng.gen::<f64>() * 1e-3,
        2 => 1.0 + rng.gen::<f64>(),
        3 => [0.0, 0.45, 0.55, 0.5, 1.0][rng.gen_index(5)],
        4 => -0.0,
        _ => rng.gen::<f64>(),
    }
}

fn random_records(rng: &mut SmallRng, n: usize) -> Vec<InjectionRecord> {
    (0..n)
        .map(|_| InjectionRecord {
            point: InjectionPoint {
                op_index: if rng.gen_bool(0.05) {
                    usize::MAX
                } else {
                    rng.gen_index(40)
                },
                qubit: rng.gen_index(16),
            },
            theta: angle(rng),
            phi: angle(rng),
            qvf: qvf(rng),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The fixed-point writer.

#[test]
fn fixed_matches_std_on_random_bit_patterns() {
    let mut rng = SmallRng::seed_from_u64(0xf1ed);
    for _ in 0..100_000 {
        assert_fixed_matches_std(f64::from_bits(rng.next_u64()));
        assert_fixed_matches_std(moderate(&mut rng));
        assert_fixed_matches_std(rng.gen::<f64>());
    }
}

#[test]
fn fixed_matches_std_on_every_precision() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..20_000 {
        let v = moderate(&mut rng);
        for d in 0..=12 {
            assert_eq!(fixed(v, d), format!("{v:.d$}"), "push_fixed({v:e}, {d})");
        }
    }
}

#[test]
fn fixed_rounds_exact_ties_to_even() {
    // (k + ½)·10^-d is representable only as m / 2^(d+1) with m odd:
    // every such value is an exact tie at d decimals.
    let mut rng = SmallRng::seed_from_u64(5);
    for d in 0..=9usize {
        let denom = 2f64.powi(d as i32 + 1);
        let mut check = |m: u64| {
            let v = (2 * m + 1) as f64 / denom;
            for v in [v, -v] {
                assert_eq!(fixed(v, d), format!("{v:.d$}"), "tie {v:e} at {d}");
            }
        };
        (0..2_000).for_each(&mut check);
        for _ in 0..2_000 {
            check(rng.next_u64() >> (34 - d));
        }
    }
    assert_eq!(fixed(0.0078125, 6), "0.007812");
    assert_eq!(fixed(0.0234375, 6), "0.023438");
}

#[test]
fn fixed_handles_zeros_subnormals_and_tiny_negatives() {
    let subnormals = [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000];
    for bits in subnormals {
        assert_fixed_matches_std(f64::from_bits(bits));
        assert_fixed_matches_std(-f64::from_bits(bits));
    }
    for v in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        -1e-300,
        -1e-12,
        -4.9e-7,
        -5e-7,
        -5.000001e-7,
        -1e-6,
        -4.99999999e-10,
        -5e-10,
        -5.0000001e-10,
        1e-7,
    ] {
        assert_fixed_matches_std(v);
    }
    assert_eq!(fixed(-0.0, 6), "-0.000000");
    assert_eq!(fixed(-1e-9, 6), "-0.000000");
}

#[test]
fn fixed_falls_back_for_large_and_non_finite_values() {
    let below = f64::from_bits(1e9f64.to_bits() - 1);
    for v in [
        1e9,
        -1e9,
        below,
        -below,
        999_999_999.999_999_9,
        1e15,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        for d in 0..=12 {
            assert_eq!(fixed(v, d), format!("{v:.d$}"), "push_fixed({v:e}, {d})");
        }
    }
}

#[test]
fn every_six_decimal_unit_value_round_trips() {
    // The checkpoint → export path: a QVF read back from its 6-decimal
    // checkpoint text must re-print as the same text.
    let mut text = String::new();
    for i in 0..=1_000_000u32 {
        text.clear();
        let _ = write!(text, "{}.{:06}", i / 1_000_000, i % 1_000_000);
        let v: f64 = text.parse().unwrap();
        assert_eq!(fixed(v, 6), text);
    }
}

// ---------------------------------------------------------------------
// The writers and the parser.

#[test]
fn record_writers_match_the_reference_byte_for_byte() {
    let mut rng = SmallRng::seed_from_u64(2024);
    for case in 0..300 {
        let n = if case == 0 { 0 } else { rng.gen_index(400) };
        let records = random_records(&mut rng, n);
        assert_eq!(records_to_csv(&records), ref_records_to_csv(&records));
        assert_eq!(records_to_json(&records), ref_records_to_json(&records));
        let result = CampaignResult {
            circuit_name: "bv-\"4\"\n".into(),
            golden: vec![5, 0, usize::MAX],
            baseline_qvf: qvf(&mut rng),
            records,
            grid: FaultGrid::custom(vec![0.0, 1.0, -0.0], vec![f64::NAN, 2.5]),
        };
        assert_eq!(campaign_to_json(&result), ref_campaign_to_json(&result));
    }
}

#[test]
fn heatmap_writers_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(99);
    for grid in [
        FaultGrid::paper(),
        FaultGrid::coarse(),
        FaultGrid::custom(vec![-0.0, 1e-7, 2.5], vec![0.0]),
        FaultGrid::custom(vec![], vec![]),
    ] {
        let samples: Vec<(f64, f64, f64)> = (0..500)
            .map(|_| {
                let t = grid.thetas.get(rng.gen_index(grid.thetas.len().max(1)));
                let p = grid.phis.get(rng.gen_index(grid.phis.len().max(1)));
                (*t.unwrap_or(&0.0), *p.unwrap_or(&0.0), qvf(&mut rng))
            })
            .collect();
        let hm = Heatmap::from_samples(&grid, samples);
        assert_eq!(hm.to_csv(), ref_heatmap_to_csv(&hm));
        assert_eq!(heatmap_to_json(&hm), ref_heatmap_to_json(&hm));
    }
}

#[test]
fn double_record_writer_matches_the_reference() {
    let mut rng = SmallRng::seed_from_u64(3);
    let records: Vec<DoubleInjectionRecord> = (0..500)
        .map(|_| DoubleInjectionRecord {
            point: InjectionPoint {
                op_index: rng.gen_index(30),
                qubit: rng.gen_index(5),
            },
            neighbor: rng.gen_index(5),
            theta0: angle(&mut rng),
            phi0: angle(&mut rng),
            theta1: angle(&mut rng),
            phi1: angle(&mut rng),
            qvf: qvf(&mut rng),
        })
        .collect();
    let csv = double_records_to_csv(&records);
    assert_eq!(csv, ref_double_records_to_csv(&records));
    assert_eq!(double_records_from_csv(&csv).unwrap().len(), records.len());
    assert_eq!(double_records_to_csv(&[]), ref_double_records_to_csv(&[]));
}

/// Parse results compared bit for bit (NaN QVFs included).
fn parsed_bits(
    parsed: Result<Vec<InjectionRecord>, CsvError>,
) -> Result<Vec<(InjectionPoint, u64, u64, u64)>, CsvError> {
    parsed.map(|records| {
        records
            .iter()
            .map(|r| (r.point, r.theta.to_bits(), r.phi.to_bits(), r.qvf.to_bits()))
            .collect()
    })
}

#[test]
fn parser_matches_the_reference_on_valid_and_damaged_text() {
    let mut rng = SmallRng::seed_from_u64(77);
    let edits: [&dyn Fn(&str) -> String; 12] = [
        &|l| l.replacen(',', ", ", 2),
        &|l| l.replacen(',', "", 1),
        &|l| l.replacen('.', "x", 1),
        &|l| l.split(',').take(3).collect::<Vec<_>>().join(","),
        &|l| format!("+{l}"),
        &|l| l.replacen("0.", "1e-1", 1),
        &|l| format!(" {l}\r"),
        &|_| "   ".to_string(),
        &|l| l.replacen(',', ",inf,", 1),
        &|l| l.replacen(',', ",-,", 1),
        &|l| l.replacen(',', ",.5,", 1),
        &|l| format!("{l},extra"),
    ];
    for case in 0..400 {
        let n = rng.gen_index(60);
        let records = random_records(&mut rng, n);
        let mut lines: Vec<String> = records_to_csv(&records)
            .lines()
            .map(str::to_string)
            .collect();
        if case % 2 == 1 && lines.len() > 1 {
            for _ in 0..1 + rng.gen_index(3) {
                let i = 1 + rng.gen_index(lines.len() - 1);
                lines[i] = edits[rng.gen_index(edits.len())](&lines[i]);
            }
        }
        if case % 17 == 0 {
            lines[0] = "theta,qubit".into();
        }
        let text = lines.join(if case % 3 == 0 { "\r\n" } else { "\n" }) + "\n\n";
        assert_eq!(
            parsed_bits(records_from_csv(&text)),
            parsed_bits(ref_records_from_csv(&text)),
            "{text}"
        );
    }
    assert_eq!(records_from_csv("").unwrap(), Vec::new());
}

#[test]
fn checkpoint_text_round_trips_through_the_codec() {
    // Parse → re-render is the identity on codec output, which is what
    // lets an export re-derive the checkpoints' bytes.
    let mut rng = SmallRng::seed_from_u64(8);
    let records = random_records(&mut rng, 2_000);
    let csv = records_to_csv(&records);
    assert_eq!(records_to_csv(&records_from_csv(&csv).unwrap()), csv);
}
