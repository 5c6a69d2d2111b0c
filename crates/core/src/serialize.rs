//! CSV persistence for campaign data.
//!
//! Campaigns at paper scale take minutes to hours; persisting the raw
//! records lets analyses (heatmaps, histograms, qubit rankings) re-run
//! without re-executing circuits, and lets external tooling (the paper's
//! published data is CSV too) consume the results.
//!
//! # The record codec
//!
//! Checkpoint lines and every exported artifact are written by one
//! codec that renders straight into a caller's `String`: no per-record or
//! per-float allocation, and each distinct grid angle is rendered once
//! per call. Its output is byte-identical to the `format!`-based writers
//! it replaced, which is what keeps checkpoints and exports stable
//! across versions.
//!
//! Fixed-point fields (`{:.6}`, `{:.9}`) go through [`push_fixed`],
//! which is exact rather than approximate. A finite `f64` is `m · 2^-s`
//! for integers `m < 2^53` and `s`. When `|v| < 10^9 < 2^30`, `s ≥ 23`,
//! so `v · 10^d = n / 2^s` with `n = m · 10^d < 2^83`, which fits a
//! `u128` for `d ≤ 9`. The quotient `n >> s` and the remainder are then
//! exact, and rounding half to even on them gives the correctly rounded
//! `d`-decimal value — the digits std's exact mode prints. The quotient
//! is below `10^18 + 1`, so the digits come from `u64` arithmetic. Larger
//! magnitudes, higher precisions and non-finite values fall back to
//! `write!`.

use crate::campaign::{CampaignResult, CampaignStats, InjectionRecord};
use crate::double::DoubleInjectionRecord;
use crate::fault::InjectionPoint;
use crate::metrics::Severity;
use crate::report::Heatmap;
use core::fmt;
use std::fmt::Write as _;

/// A CSV parsing failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// Line where parsing failed.
    pub line: usize,
    /// Why.
    pub reason: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv parse error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, reason: impl Into<String>) -> CsvError {
    CsvError {
        line,
        reason: reason.into(),
    }
}

/// Powers of ten up to the largest precision [`push_fixed`] renders
/// itself.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Magnitudes from here on go to std, so `m · 10^d` cannot overflow.
const FIXED_MAX: f64 = 1e9;

/// Appends `v` with `decimals` fractional digits, byte-identical to
/// `write!(out, "{v:.decimals$}")` — the sign comes from the sign bit,
/// so `-0.0` and negatives that round to zero print as `-0.000…` just as
/// std does. See the module docs for why the digits are exact.
pub fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    if decimals >= POW10.len() || !v.is_finite() || v.abs() >= FIXED_MAX {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let frac = bits & ((1 << 52) - 1);
    // v = m · 2^-s; zeros and subnormals share the exponent −1074.
    let (m, s) = if biased == 0 {
        (frac, 1074)
    } else {
        (frac | 1 << 52, 1075 - biased)
    };
    let scale = POW10[decimals];
    let n = u128::from(m) * u128::from(scale);
    // n < 2^83, so from s = 84 on the value is below one half unit and
    // rounds to zero; stopping at 120 also keeps the shifts in range.
    let q = if s >= 120 {
        0
    } else {
        let q = n >> s;
        let r = n & ((1u128 << s) - 1);
        let half = 1u128 << (s - 1);
        (q + u128::from(r > half || (r == half && q & 1 == 1))) as u64
    };
    let mut buf = [0u8; 24];
    let mut i = buf.len();
    let (mut int, mut fraction) = (q / scale, q % scale);
    for _ in 0..decimals {
        i -= 1;
        buf[i] = b'0' + (fraction % 10) as u8;
        fraction /= 10;
    }
    if decimals > 0 {
        i -= 1;
        buf[i] = b'.';
    }
    loop {
        i -= 1;
        buf[i] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if bits >> 63 == 1 {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Appends `n` in decimal, as `write!(out, "{n}")` would.
pub fn push_uint(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Rendered text of the floats one writer call has seen, keyed by bit
/// pattern (so `0.0` and `-0.0` stay distinct): a campaign's records
/// carry a few dozen distinct grid angles, each rendered once. Open
/// addressing over `SLOTS` slots, at most half of them filled; once
/// full, further values are rendered without memoizing, so the memo
/// never grows.
pub(crate) struct FloatMemo {
    render: fn(&mut String, f64),
    keys: Vec<u64>,
    texts: Vec<String>,
    filled: usize,
}

impl FloatMemo {
    const SLOTS: usize = 128;

    pub(crate) fn new(render: fn(&mut String, f64)) -> Self {
        FloatMemo {
            render,
            keys: vec![0; Self::SLOTS],
            texts: vec![String::new(); Self::SLOTS],
            filled: 0,
        }
    }

    /// Appends `render(v)`, from the memo when `v` was seen before.
    pub(crate) fn push(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        let mut slot = (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as usize;
        // Rendered text is never empty, so an empty slot is a free one;
        // at most half the slots fill, so the probe always ends.
        loop {
            if self.texts[slot].is_empty() {
                let start = out.len();
                (self.render)(out, v);
                if self.filled < Self::SLOTS / 2 {
                    self.keys[slot] = bits;
                    self.texts[slot].push_str(&out[start..]);
                    self.filled += 1;
                }
                return;
            }
            if self.keys[slot] == bits {
                out.push_str(&self.texts[slot]);
                return;
            }
            slot = (slot + 1) % Self::SLOTS;
        }
    }
}

/// Header line of [`crate::report::records_to_csv`] and the checkpoint
/// record logs.
pub const RECORDS_CSV_HEADER: &str = "op_index,qubit,theta,phi,qvf,severity\n";

// Typical rendered sizes of one record, for pre-sizing output buffers.
const CSV_ROW_BYTES: usize = 48;
const JSON_RECORD_BYTES: usize = 112;

/// Appends one CSV row per record (no header): angles at 9 decimals,
/// QVF at 6, then the severity class — the row format of
/// [`crate::report::records_to_csv`].
pub fn push_records_csv(out: &mut String, records: &[InjectionRecord]) {
    out.reserve(records.len() * CSV_ROW_BYTES);
    let mut angles = FloatMemo::new(|out, v| push_fixed(out, v, 9));
    for r in records {
        push_uint(out, r.point.op_index as u64);
        out.push(',');
        push_uint(out, r.point.qubit as u64);
        out.push(',');
        angles.push(out, r.theta);
        out.push(',');
        angles.push(out, r.phi);
        out.push(',');
        push_fixed(out, r.qvf, 6);
        out.push(',');
        out.push_str(Severity::classify(r.qvf).label());
        out.push('\n');
    }
}

/// The next comma-separated field of `line`, trimmed.
fn next_raw<'a>(
    fields: &mut std::str::Split<'a, char>,
    line: usize,
    name: &str,
) -> Result<&'a str, CsvError> {
    fields
        .next()
        .map(str::trim)
        .ok_or_else(|| err(line, format!("missing field {name}")))
}

fn next_field<T: std::str::FromStr>(
    fields: &mut std::str::Split<'_, char>,
    line: usize,
    name: &str,
) -> Result<T, CsvError> {
    next_raw(fields, line, name)?
        .parse::<T>()
        .map_err(|_| err(line, format!("bad {name} value")))
}

/// Like [`next_field`] for an angle column, reusing the previous line's
/// value when the text is the same — consecutive records of a point
/// share their φ.
fn next_angle<'a>(
    fields: &mut std::str::Split<'a, char>,
    line: usize,
    name: &str,
    last: &mut Option<(&'a str, f64)>,
) -> Result<f64, CsvError> {
    let raw = next_raw(fields, line, name)?;
    match *last {
        Some((text, v)) if text == raw => Ok(v),
        _ => {
            let v = raw
                .parse::<f64>()
                .map_err(|_| err(line, format!("bad {name} value")))?;
            *last = Some((raw, v));
            Ok(v)
        }
    }
}

/// The data lines of a CSV document with their 1-based line numbers,
/// after checking the header and skipping blank lines.
fn data_lines(text: &str) -> Result<impl Iterator<Item = (usize, &str)>, CsvError> {
    let mut lines = text.lines().enumerate();
    if let Some((_, header)) = lines.next() {
        if !header.starts_with("op_index,") {
            return Err(err(1, "unexpected header"));
        }
    }
    Ok(lines
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty()))
}

/// Parses records written by [`crate::report::records_to_csv`]. The
/// trailing `severity` column is ignored (it is derivable from the QVF).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn records_from_csv(text: &str) -> Result<Vec<InjectionRecord>, CsvError> {
    let mut out = Vec::with_capacity(text.len() / CSV_ROW_BYTES);
    let (mut theta, mut phi) = (None, None);
    for (lineno, line) in data_lines(text)? {
        let mut f = line.split(',');
        out.push(InjectionRecord {
            point: InjectionPoint {
                op_index: next_field(&mut f, lineno, "op_index")?,
                qubit: next_field(&mut f, lineno, "qubit")?,
            },
            theta: next_angle(&mut f, lineno, "theta", &mut theta)?,
            phi: next_angle(&mut f, lineno, "phi", &mut phi)?,
            qvf: next_field(&mut f, lineno, "qvf")?,
        });
    }
    Ok(out)
}

/// Serializes double-injection records as CSV.
pub fn double_records_to_csv(records: &[DoubleInjectionRecord]) -> String {
    let mut out = String::from("op_index,qubit,neighbor,theta0,phi0,theta1,phi1,qvf\n");
    for r in records {
        push_uint(&mut out, r.point.op_index as u64);
        out.push(',');
        push_uint(&mut out, r.point.qubit as u64);
        out.push(',');
        push_uint(&mut out, r.neighbor as u64);
        for angle in [r.theta0, r.phi0, r.theta1, r.phi1] {
            out.push(',');
            push_fixed(&mut out, angle, 6);
        }
        out.push(',');
        push_fixed(&mut out, r.qvf, 6);
        out.push('\n');
    }
    out
}

/// Parses records written by [`double_records_to_csv`].
///
/// # Errors
///
/// Returns the first malformed line.
pub fn double_records_from_csv(text: &str) -> Result<Vec<DoubleInjectionRecord>, CsvError> {
    let mut out = Vec::new();
    for (lineno, line) in data_lines(text)? {
        let mut f = line.split(',');
        out.push(DoubleInjectionRecord {
            point: InjectionPoint {
                op_index: next_field(&mut f, lineno, "op_index")?,
                qubit: next_field(&mut f, lineno, "qubit")?,
            },
            neighbor: next_field(&mut f, lineno, "neighbor")?,
            theta0: next_field(&mut f, lineno, "theta0")?,
            phi0: next_field(&mut f, lineno, "phi0")?,
            theta1: next_field(&mut f, lineno, "theta1")?,
            phi1: next_field(&mut f, lineno, "phi1")?,
            qvf: next_field(&mut f, lineno, "qvf")?,
        });
    }
    Ok(out)
}

/// Minimal JSON writers. serde is not available offline (see
/// `vendor/README.md`), so machine-readable artifacts are emitted by
/// hand; the format is plain enough for any consumer. The `push_*`
/// forms append to a buffer; the others return a fresh `String`.
pub mod json {
    use std::fmt::Write as _;

    /// Appends `s` escaped and quoted per RFC 8259.
    pub fn push_string(out: &mut String, s: &str) {
        out.reserve(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Escapes and quotes a string per RFC 8259.
    pub fn string(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    /// Appends a float: shortest round-trip form, `null` for NaN/∞
    /// (which JSON cannot represent).
    pub fn push_num(out: &mut String, v: f64) {
        if v.is_finite() {
            let start = out.len();
            let _ = write!(out, "{v}");
            // Rust renders whole floats as "1"; keep them typed as floats.
            if !out[start..].contains(['.', 'e']) {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }

    /// Renders a float as [`push_num`] does.
    pub fn num(v: f64) -> String {
        let mut out = String::new();
        push_num(&mut out, v);
        out
    }

    /// Appends `[a, b, …]`, each item written by `push`.
    pub fn push_array<T>(
        out: &mut String,
        items: impl IntoIterator<Item = T>,
        mut push: impl FnMut(&mut String, T),
    ) {
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push(out, item);
        }
        out.push(']');
    }
}

/// Appends raw records as a JSON array, one object per record — the
/// body of [`records_to_json`].
pub fn push_records_json(out: &mut String, records: &[InjectionRecord]) {
    out.reserve(2 + records.len() * JSON_RECORD_BYTES);
    let mut angles = FloatMemo::new(json::push_num);
    json::push_array(out, records, |out, r| {
        out.push_str("{\"op_index\":");
        push_uint(out, r.point.op_index as u64);
        out.push_str(",\"qubit\":");
        push_uint(out, r.point.qubit as u64);
        out.push_str(",\"theta\":");
        angles.push(out, r.theta);
        out.push_str(",\"phi\":");
        angles.push(out, r.phi);
        out.push_str(",\"qvf\":");
        json::push_num(out, r.qvf);
        out.push_str(",\"severity\":\"");
        out.push_str(Severity::classify(r.qvf).label());
        out.push_str("\"}");
    });
}

/// Serializes raw records as a JSON array (the JSON sibling of
/// [`crate::report::records_to_csv`]).
pub fn records_to_json(records: &[InjectionRecord]) -> String {
    let mut out = String::new();
    push_records_json(&mut out, records);
    out
}

/// Appends a whole campaign — metadata, the given summary statistics
/// and raw records — as one JSON document (see [`campaign_to_json`]).
pub fn push_campaign_json(out: &mut String, result: &CampaignResult, stats: &CampaignStats) {
    out.push_str("{\"circuit\":");
    json::push_string(out, &result.circuit_name);
    out.push_str(",\"golden\":");
    json::push_array(out, result.golden.iter().map(|&g| g as u64), push_uint);
    out.push_str(",\"baseline_qvf\":");
    json::push_num(out, result.baseline_qvf);
    out.push_str(",\"mean_qvf\":");
    json::push_num(out, stats.mean_qvf);
    out.push_str(",\"stddev_qvf\":");
    json::push_num(out, stats.stddev_qvf);
    out.push_str(",\"severity\":{\"masked\":");
    push_uint(out, stats.masked as u64);
    out.push_str(",\"dubious\":");
    push_uint(out, stats.dubious as u64);
    out.push_str(",\"sdc\":");
    push_uint(out, stats.sdc as u64);
    out.push_str("},\"grid\":{\"thetas\":");
    json::push_array(out, result.grid.thetas.iter().copied(), json::push_num);
    out.push_str(",\"phis\":");
    json::push_array(out, result.grid.phis.iter().copied(), json::push_num);
    out.push_str("},\"records\":");
    push_records_json(out, &result.records);
    out.push('}');
}

/// Serializes a whole campaign — metadata, summary statistics and raw
/// records — as one JSON document.
pub fn campaign_to_json(result: &CampaignResult) -> String {
    let mut out = String::new();
    push_campaign_json(&mut out, result, &result.stats());
    out
}

/// Appends a heatmap as JSON (see [`heatmap_to_json`]).
pub fn push_heatmap_json(out: &mut String, hm: &Heatmap) {
    let cells =
        || (0..hm.phis().len()).flat_map(|pi| (0..hm.thetas().len()).map(move |ti| (pi, ti)));
    out.push_str("{\"thetas\":");
    json::push_array(out, hm.thetas().iter().copied(), json::push_num);
    out.push_str(",\"phis\":");
    json::push_array(out, hm.phis().iter().copied(), json::push_num);
    out.push_str(",\"values\":");
    json::push_array(
        out,
        cells().map(|(pi, ti)| hm.value(pi, ti)),
        json::push_num,
    );
    out.push_str(",\"counts\":");
    json::push_array(
        out,
        cells().map(|(pi, ti)| hm.count(pi, ti) as u64),
        push_uint,
    );
    out.push('}');
}

/// Serializes a heatmap — axes plus row-major `[phi][theta]` means and
/// counts — as JSON (the JSON sibling of [`Heatmap::to_csv`]).
pub fn heatmap_to_json(hm: &Heatmap) -> String {
    let mut out = String::new();
    push_heatmap_json(&mut out, hm);
    out
}

#[cfg(test)]
// Test fixtures intentionally use 6-decimal values that mimic the CSV
// output precision; they are not meant to be π.
#[allow(clippy::approx_constant)]
mod tests {
    use super::*;
    use crate::report::records_to_csv;

    fn sample_records() -> Vec<InjectionRecord> {
        vec![
            InjectionRecord {
                point: InjectionPoint {
                    op_index: 2,
                    qubit: 0,
                },
                theta: 0.785398,
                phi: 3.141593,
                qvf: 0.42,
            },
            InjectionRecord {
                point: InjectionPoint {
                    op_index: 5,
                    qubit: 3,
                },
                theta: 0.0,
                phi: 0.261799,
                qvf: 0.91,
            },
        ]
    }

    #[test]
    fn single_records_roundtrip() {
        let records = sample_records();
        let csv = records_to_csv(&records);
        let back = records_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.point, b.point);
            assert!((a.theta - b.theta).abs() < 1e-6);
            assert!((a.qvf - b.qvf).abs() < 1e-6);
        }
    }

    #[test]
    fn double_records_roundtrip() {
        let records = vec![DoubleInjectionRecord {
            point: InjectionPoint {
                op_index: 1,
                qubit: 2,
            },
            neighbor: 0,
            theta0: 3.141593,
            phi0: 3.141593,
            theta1: 1.570796,
            phi1: 0.785398,
            qvf: 0.63,
        }];
        let csv = double_records_to_csv(&records);
        let back = double_records_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].neighbor, 0);
        assert!((back[0].phi1 - 0.785398).abs() < 1e-9);
    }

    #[test]
    fn bad_header_rejected_with_line() {
        let e = records_from_csv("nope\n1,2,3,4,5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn bad_value_reports_line_and_field() {
        let csv = "op_index,qubit,theta,phi,qvf,severity\n1,x,0.0,0.0,0.5,masked\n";
        let e = records_from_csv(csv).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("qubit"));
    }

    #[test]
    fn blank_lines_tolerated() {
        let csv = records_to_csv(&sample_records()) + "\n\n";
        assert_eq!(records_from_csv(&csv).unwrap().len(), 2);
    }

    #[test]
    fn json_records_carry_all_fields() {
        let j = records_to_json(&sample_records());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"op_index\":2"));
        assert!(j.contains("\"qvf\":0.42"));
        assert!(j.contains("\"severity\":\"masked\""));
        assert!(j.contains("\"severity\":\"sdc\""));
    }

    #[test]
    fn json_campaign_document_is_complete() {
        use crate::campaign::CampaignResult;
        use crate::fault::FaultGrid;
        let result = CampaignResult::from_parts(
            "bv-4",
            vec![5],
            0.1,
            FaultGrid::custom(vec![0.0], vec![0.0, 3.141593]),
            sample_records(),
        );
        let j = campaign_to_json(&result);
        for key in [
            "\"circuit\":\"bv-4\"",
            "\"golden\":[5]",
            "\"baseline_qvf\":0.1",
            "\"mean_qvf\":",
            "\"severity\":{\"masked\":1",
            "\"thetas\":[0.0]",
            "\"records\":[",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn json_heatmap_uses_null_for_empty_cells() {
        use crate::fault::FaultGrid;
        let grid = FaultGrid::custom(vec![0.0, 1.0], vec![0.0]);
        let hm = Heatmap::from_samples(&grid, vec![(0.0, 0.0, 0.5)]);
        let j = heatmap_to_json(&hm);
        assert!(j.contains("\"values\":[0.5,null]"), "{j}");
        assert!(j.contains("\"counts\":[1,0]"), "{j}");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json::num(f64::NAN), "null");
        assert_eq!(json::num(2.0), "2.0");
    }
}
