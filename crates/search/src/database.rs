//! Persistent scheme database (§3.3.1: "we can maintain a database to store
//! the results for every convolution workload … on every CPU type to
//! prevent repeating search for the same convolution in different models").
//!
//! The on-disk format is a line-oriented text table (no third-party
//! serialization dependency): one header line, then one line per ranked
//! scheme keyed by `(target, workload)`.
//!
//! Because the file is an external input to a serving process, parsing is
//! hardened: every malformed line produces a typed, line-numbered
//! [`DbError`], schedules that cannot execute their workload (zero or
//! non-dividing blocks, out-of-range `reg_n`) are rejected at parse time,
//! non-finite times are refused, and exact duplicate rows are flagged. There
//! is one reader ([`SchemeDatabase::from_text`], and [`SchemeDatabase::load`]
//! around it): it skips each bad line and returns it as a problem beside the
//! surviving entries, so one corrupt row cannot take down a server that
//! merely loses a cached tuning result. A caller that wants a clean file
//! checks that the problem list is empty.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use neocpu_kernels::conv::{Conv2dParams, ConvSchedule, Dataflow};
use neocpu_tensor::DType;

use crate::local::RankedScheme;

/// A `(target name, workload, dtype)` key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    /// CPU target name (e.g. `"skylake-avx512"`).
    pub target: String,
    /// The convolution workload.
    pub params: Conv2dParams,
    /// Activation element type the schemes were tuned for. `F32` keys
    /// serialize without a suffix.
    pub dtype: DType,
}

/// Typed failure from parsing or loading a scheme database.
#[derive(Debug)]
pub enum DbError {
    /// The first line is not the expected format header.
    BadHeader {
        /// What the first line actually contained.
        found: String,
    },
    /// A data line is malformed or describes an invalid scheme. `line` is
    /// the 1-based line number within the file.
    Line {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable reason the line was rejected.
        reason: String,
    },
    /// Underlying file I/O failure.
    Io(io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadHeader { found } => {
                write!(f, "bad scheme-db header: expected '{HEADER}', found '{found}'")
            }
            Self::Line { line, reason } => write!(f, "scheme-db line {line}: {reason}"),
            Self::Io(e) => write!(f, "scheme-db i/o error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The one header line the text format carries.
const HEADER: &str = "neocpu-scheme-db v4";

/// In-memory scheme cache with text-file persistence.
#[derive(Debug, Default, Clone)]
pub struct SchemeDatabase {
    entries: HashMap<WorkloadKey, Vec<RankedScheme>>,
}

impl SchemeDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the ranked schemes of an f32 workload.
    pub fn get(&self, target: &str, params: &Conv2dParams) -> Option<&[RankedScheme]> {
        self.get_dtyped(target, params, DType::F32)
    }

    /// Looks up the ranked schemes of a workload tuned for `dtype`
    /// activations. Entries of different dtypes never alias: an int8 scheme
    /// is only returned for an int8 lookup.
    pub fn get_dtyped(
        &self,
        target: &str,
        params: &Conv2dParams,
        dtype: DType,
    ) -> Option<&[RankedScheme]> {
        self.entries
            .get(&WorkloadKey { target: target.to_string(), params: *params, dtype })
            .map(Vec::as_slice)
    }

    /// Stores the ranked candidate list of an f32 workload, discarding
    /// whatever was stored before. An empty `schemes` removes the entry.
    ///
    /// This is the one writer: the compiler stores each workload's verified
    /// list whole, so schemes that failed verification never resurface on
    /// the next compile.
    pub fn replace(&mut self, target: &str, params: &Conv2dParams, schemes: Vec<RankedScheme>) {
        self.replace_dtyped(target, params, DType::F32, schemes);
    }

    /// Dtype-aware variant of [`SchemeDatabase::replace`].
    pub fn replace_dtyped(
        &mut self,
        target: &str,
        params: &Conv2dParams,
        dtype: DType,
        schemes: Vec<RankedScheme>,
    ) {
        let key = WorkloadKey { target: target.to_string(), params: *params, dtype };
        if schemes.is_empty() {
            self.entries.remove(&key);
        } else {
            self.entries.insert(key, schemes);
        }
    }

    /// Serializes to the text format: the header, then one row per scheme
    /// with its dataflow token spelled out.
    pub fn to_text(&self) -> String {
        let mut s = format!("{HEADER}\n");
        let mut keys: Vec<&WorkloadKey> = self.entries.keys().collect();
        keys.sort_by(|a, b| {
            (&a.target, fmt_workload(&a.params, a.dtype))
                .cmp(&(&b.target, fmt_workload(&b.params, b.dtype)))
        });
        for k in keys {
            for r in &self.entries[k] {
                let sch = r.schedule;
                writeln!(
                    s,
                    "{} {} {} {} {} {} {:e}",
                    k.target,
                    fmt_workload(&k.params, k.dtype),
                    sch.ic_bn,
                    sch.oc_bn,
                    sch.reg_n,
                    sch.dataflow.token(),
                    r.time,
                )
                .expect("writing to String cannot fail");
            }
        }
        s
    }

    /// Parses the text format produced by [`SchemeDatabase::to_text`].
    ///
    /// Returns the entries of every well-formed line plus one line-numbered
    /// [`DbError`] per skipped problem: malformed fields, schemes that do not
    /// validate against their workload, non-finite times, exact duplicate
    /// rows. A bad header yields an empty database and that one problem,
    /// because no line after it can be trusted.
    pub fn from_text(text: &str) -> (Self, Vec<DbError>) {
        let mut db = Self::new();
        let mut problems = Vec::new();
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header != HEADER {
            return (db, vec![DbError::BadHeader { found: header.to_string() }]);
        }
        for (no, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let line_no = no + 2;
            match parse_line(line) {
                Ok((key, scheme)) => {
                    let list = db.entries.entry(key).or_default();
                    if list.iter().any(|r| r.schedule == scheme.schedule) {
                        problems.push(DbError::Line {
                            line: line_no,
                            reason: format!("duplicate scheme {:?} for this workload", scheme.schedule),
                        });
                    } else {
                        list.push(scheme);
                    }
                }
                Err(reason) => problems.push(DbError::Line { line: line_no, reason }),
            }
        }
        for v in db.entries.values_mut() {
            v.sort_by(|a, b| a.time.total_cmp(&b.time));
        }
        (db, problems)
    }

    /// Saves to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_text())
    }

    /// Loads from a file through [`SchemeDatabase::from_text`].
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; parse problems are returned as the second
    /// tuple element.
    pub fn load(path: &Path) -> Result<(Self, Vec<DbError>), DbError> {
        Ok(Self::from_text(&fs::read_to_string(path)?))
    }
}

/// Parses one data line, returning a reason string on any defect.
fn parse_line(line: &str) -> Result<(WorkloadKey, RankedScheme), String> {
    let mut f = line.split_whitespace();
    let target = f.next().ok_or_else(|| "missing target field".to_string())?.to_string();
    let params_field = f.next().ok_or_else(|| "missing workload field".to_string())?;
    let (params, dtype) =
        parse_workload(params_field).ok_or_else(|| format!("bad workload '{params_field}'"))?;
    let nums: Vec<&str> = f.collect();
    let [ic_bn, oc_bn, reg_n, dataflow, time_field] = nums[..] else {
        return Err(format!("expected 5 scheme fields, found {}", nums.len()));
    };
    let int = |s: &str, what: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("{what} '{s}' is not an unsigned integer"))
    };
    let schedule = ConvSchedule {
        ic_bn: int(ic_bn, "ic_bn")?,
        oc_bn: int(oc_bn, "oc_bn")?,
        reg_n: int(reg_n, "reg_n")?,
        dataflow: Dataflow::from_token(dataflow)
            .ok_or_else(|| format!("dataflow token '{dataflow}' is not one of os/sr"))?,
    };
    schedule.validate(&params).map_err(|e| format!("invalid scheme for its workload: {e}"))?;
    let time: f32 =
        time_field.parse().map_err(|_| format!("time '{time_field}' is not a number"))?;
    if !time.is_finite() || time < 0.0 {
        return Err(format!("time {time} is not finite and non-negative"));
    }
    Ok((WorkloadKey { target, params, dtype }, RankedScheme { schedule, time }))
}

/// Formats a workload key:
/// `ICxOCxHxWkKHxKWsSHxSWpPHxPW[gG][dDTYPE]`.
///
/// This is the single definition of the key grammar — [`parse_workload`] is
/// its exact inverse, and both `replace` and `get` key through the same
/// [`WorkloadKey`] it round-trips. Both optional suffixes are omitted at
/// their defaults (`groups == 1`, `dtype == f32`).
fn fmt_workload(p: &Conv2dParams, dtype: DType) -> String {
    let groups = if p.groups > 1 { format!("g{}", p.groups) } else { String::new() };
    let dt = if dtype != DType::F32 { format!("d{dtype}") } else { String::new() };
    format!(
        "{}x{}x{}x{}k{}x{}s{}x{}p{}x{}{}{}",
        p.in_channels,
        p.out_channels,
        p.in_h,
        p.in_w,
        p.kernel_h,
        p.kernel_w,
        p.stride_h,
        p.stride_w,
        p.pad_h,
        p.pad_w,
        groups,
        dt
    )
}

/// Inverse of [`fmt_workload`]. Both suffixes are optional (absent means
/// `groups == 1` / f32).
fn parse_workload(s: &str) -> Option<(Conv2dParams, DType)> {
    let (chans, rest) = s.split_once('k')?;
    let (kern, rest) = rest.split_once('s')?;
    let (stride, rest) = rest.split_once('p')?;
    let (rest, dtype) = match rest.split_once('d') {
        Some((rest, dt)) => (rest, dt.parse::<DType>().ok()?),
        None => (rest, DType::F32),
    };
    let (pad, groups) = match rest.split_once('g') {
        Some((pad, g)) => (pad, g.parse::<usize>().ok().filter(|&g| g > 0)?),
        None => (rest, 1),
    };
    let c: Vec<usize> = chans.split('x').map(str::parse).collect::<Result<_, _>>().ok()?;
    let k: Vec<usize> = kern.split('x').map(str::parse).collect::<Result<_, _>>().ok()?;
    let st: Vec<usize> = stride.split('x').map(str::parse).collect::<Result<_, _>>().ok()?;
    let pd: Vec<usize> = pad.split('x').map(str::parse).collect::<Result<_, _>>().ok()?;
    if c.len() != 4 || k.len() != 2 || st.len() != 2 || pd.len() != 2 {
        return None;
    }
    let params = Conv2dParams {
        in_channels: c[0],
        out_channels: c[1],
        in_h: c[2],
        in_w: c[3],
        kernel_h: k[0],
        kernel_w: k[1],
        stride_h: st[0],
        stride_w: st[1],
        pad_h: pd[0],
        pad_w: pd[1],
        groups,
    };
    Some((params, dtype))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Conv2dParams, Vec<RankedScheme>) {
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        let schemes = vec![
            RankedScheme {
                schedule: ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() },
                time: 1.25e-4,
            },
            RankedScheme {
                schedule: ConvSchedule { ic_bn: 8, oc_bn: 32, reg_n: 4, ..Default::default() },
                time: 2.5e-4,
            },
        ];
        (p, schemes)
    }

    /// Parses `text`, asserting that it reports no problems.
    fn parse_clean(text: &str) -> SchemeDatabase {
        let (db, problems) = SchemeDatabase::from_text(text);
        assert!(problems.is_empty(), "unexpected problems: {problems:?}");
        db
    }

    /// Parses `text`, asserting that it reports exactly one problem.
    fn only_problem(text: &str) -> DbError {
        let (_, mut problems) = SchemeDatabase::from_text(text);
        assert_eq!(problems.len(), 1, "expected one problem, got {problems:?}");
        problems.pop().unwrap()
    }

    #[test]
    fn round_trips_through_text() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace("skylake-avx512", &p, schemes.clone());
        let text = db.to_text();
        let back = parse_clean(&text);
        let got = back.get("skylake-avx512", &p).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].schedule, schemes[0].schedule);
        assert!((got[0].time - schemes[0].time).abs() < 1e-9);
    }

    #[test]
    fn depthwise_workloads_round_trip_with_groups_suffix() {
        let p = Conv2dParams::depthwise(64, 28, 3, 1, 1);
        let schemes = vec![RankedScheme {
            schedule: ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() },
            time: 3.0e-5,
        }];
        let mut db = SchemeDatabase::new();
        db.replace("host", &p, schemes.clone());
        let text = db.to_text();
        assert!(text.contains("g64"), "depthwise key missing groups suffix: {text}");
        let back = parse_clean(&text);
        let got = back.get("host", &p).unwrap();
        assert_eq!(got[0].schedule, schemes[0].schedule);
        // A depthwise workload and a dense workload with identical
        // dimensions are distinct keys.
        let dense = Conv2dParams::square(64, 64, 28, 3, 1, 1);
        assert!(back.get("host", &dense).is_none());
        // Dense keys carry no `g` suffix, as in the oldest files.
        let (pd, sd) = sample();
        let mut db2 = SchemeDatabase::new();
        db2.replace("host", &pd, sd);
        assert!(!db2.to_text().contains('g'));
    }

    #[test]
    fn int8_keys_round_trip_with_dtype_suffix() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace_dtyped("host", &p, DType::U8, schemes.clone());
        let text = db.to_text();
        assert!(text.contains("du8"), "int8 key missing dtype suffix: {text}");
        let back = parse_clean(&text);
        let got = back.get_dtyped("host", &p, DType::U8).unwrap();
        assert_eq!(got[0].schedule, schemes[0].schedule);
        // Same workload, different dtype: distinct keys, no aliasing.
        assert!(back.get("host", &p).is_none());
        assert!(back.get_dtyped("host", &p, DType::F32).is_none());
    }

    #[test]
    fn depthwise_int8_keys_stack_both_suffixes() {
        let p = Conv2dParams::depthwise(64, 28, 3, 1, 1);
        let schemes = vec![RankedScheme {
            schedule: ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() },
            time: 3.0e-5,
        }];
        let mut db = SchemeDatabase::new();
        db.replace_dtyped("host", &p, DType::U8, schemes.clone());
        let text = db.to_text();
        assert!(text.contains("g64du8"), "expected g then d suffix order: {text}");
        let back = parse_clean(&text);
        assert_eq!(back.get_dtyped("host", &p, DType::U8).unwrap()[0].schedule, schemes[0].schedule);
    }

    #[test]
    fn dataflow_keys_survive_replace_get_and_text() {
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        let os = RankedScheme {
            schedule: ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() },
            time: 1.25e-4,
        };
        let sr = RankedScheme {
            schedule: ConvSchedule {
                ic_bn: 16,
                oc_bn: 16,
                reg_n: 8,
                dataflow: Dataflow::ShiftReuse,
            },
            time: 1.0e-4,
        };
        // Same knobs, distinct dataflow: two candidates of one workload.
        let mut db = SchemeDatabase::new();
        db.replace("host", &p, vec![sr, os]);
        let got = db.get("host", &p).unwrap();
        assert_eq!(got.len(), 2, "dataflow must be part of the scheme's identity");
        assert_eq!(got[0].schedule.dataflow, Dataflow::ShiftReuse);
        let text = db.to_text();
        assert!(text.starts_with("neocpu-scheme-db v4\n"), "{text}");
        assert!(text.contains(" sr ") && text.contains(" os "), "row missing its token: {text}");
        let back = parse_clean(&text);
        let got = back.get("host", &p).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].schedule.dataflow, Dataflow::ShiftReuse);
        assert_eq!(got[1].schedule.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn weight_stationary_rows_of_older_files_are_rejected_by_name() {
        // A row carrying the token of the removed weight-stationary
        // dataflow: the reader names the line and the token, and drops
        // exactly that row while keeping its neighbours.
        let text = "neocpu-scheme-db v4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 sr 2e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 ws 1e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 3e-4\n";
        let (db, problems) = SchemeDatabase::from_text(text);
        match &problems[..] {
            [DbError::Line { line: 3, reason }] => {
                assert!(reason.contains("dataflow token 'ws'"), "reason was: {reason}")
            }
            other => panic!("expected one line-3 dataflow error, got {other:?}"),
        }
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        let kept = db.get("host", &p).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].schedule.dataflow, Dataflow::ShiftReuse);
        assert_eq!(kept[1].schedule.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn rejects_bad_dtype_suffix() {
        let text = "neocpu-scheme-db v4\nhost 64x128x28x28k3x3s1x1p1x1df16 16 16 8 os 1e-4\n";
        let err = only_problem(text);
        assert!(matches!(err, DbError::Line { line: 2, .. }), "got {err:?}");
    }

    #[test]
    fn replace_discards_previous_candidates() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace("host", &p, schemes.clone());
        db.replace("host", &p, vec![schemes[0]]);
        assert_eq!(db.get("host", &p).unwrap().len(), 1);
        // Replacing with nothing removes the workload entirely.
        db.replace("host", &p, Vec::new());
        assert!(db.get("host", &p).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn lookup_misses_on_other_target() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace("skylake-avx512", &p, schemes);
        assert!(db.get("epyc-avx2", &p).is_none());
    }

    #[test]
    fn rejects_bad_header_and_lines() {
        // A bad header means no line after it is trusted, good ones included.
        let (db, problems) =
            SchemeDatabase::from_text("who knows\nhost 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1e-4\n");
        assert!(db.is_empty());
        assert!(matches!(problems[..], [DbError::BadHeader { .. }]), "got {problems:?}");
        let bad = "neocpu-scheme-db v4\nfoo bar\n";
        assert!(matches!(only_problem(bad), DbError::Line { line: 2, .. }));
    }

    #[test]
    fn only_the_v4_header_and_five_field_rows_parse() {
        // Older headers are refused whole, v3 (whose rows carry the removed
        // kernel-unroll flag) included: no reader of an older format is kept.
        for old in [
            "neocpu-scheme-db v1\nhost 64x128x28x28k3x3s1x1p1x1 16 16 8 1 1e-4\n",
            "neocpu-scheme-db v3\nhost 64x128x28x28k3x3s1x1p1x1 16 16 8 1 os 1e-4\n",
        ] {
            match only_problem(old) {
                e @ DbError::BadHeader { .. } => {
                    assert!(e.to_string().contains("'neocpu-scheme-db v4'"), "message was: {e}")
                }
                other => panic!("expected a bad header, got {other:?}"),
            }
        }
        // A v3-shaped six-field row and a four-field row under the v4
        // header: each refused with its line number, the good row kept.
        let text = "neocpu-scheme-db v4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 8 16 8 1 os 2e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 8 16 8 3e-4\n";
        let (db, problems) = SchemeDatabase::from_text(text);
        let got: Vec<(usize, &str)> = problems
            .iter()
            .map(|e| match e {
                DbError::Line { line, reason } => (*line, reason.as_str()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [(3, "expected 5 scheme fields, found 6"), (4, "expected 5 scheme fields, found 4")]
        );
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        assert_eq!(db.get("host", &p).unwrap().len(), 1);
    }

    #[test]
    fn errors_carry_the_offending_line_number() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace("host", &p, schemes);
        let mut text = db.to_text();
        text.push_str("host garbage-workload 1 1 4 os 1.0\n");
        // Header is line 1, two good rows are lines 2-3, garbage is line 4.
        let (back, problems) = SchemeDatabase::from_text(&text);
        match &problems[..] {
            [DbError::Line { line: 4, reason }] => {
                assert!(reason.contains("workload"), "reason was: {reason}")
            }
            other => panic!("expected one line-4 error, got {other:?}"),
        }
        assert_eq!(back.get("host", &p).unwrap().len(), 2);
    }

    #[test]
    fn rejects_truncated_last_line() {
        // The second row was cut off mid-write, losing its trailing fields.
        let text = "neocpu-scheme-db v4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 8 32\n";
        match only_problem(text) {
            DbError::Line { line: 3, reason } => {
                assert!(reason.contains("5 scheme fields"), "reason was: {reason}")
            }
            other => panic!("expected line-3 error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_and_negative_times() {
        for bad_time in ["NaN", "inf", "-1.0"] {
            let text = format!("neocpu-scheme-db v4\nhost 64x128x28x28k3x3s1x1p1x1 16 16 8 os {bad_time}\n");
            let err = only_problem(&text);
            assert!(matches!(err, DbError::Line { line: 2, .. }), "{bad_time}: got {err:?}");
        }
    }

    #[test]
    fn rejects_schemes_invalid_for_their_workload() {
        // ic_bn 48 does not divide 64; reg_n 0 is out of range.
        for bad in [
            "host 64x128x28x28k3x3s1x1p1x1 48 16 8 os 1e-4",
            "host 64x128x28x28k3x3s1x1p1x1 16 16 0 os 1e-4",
        ] {
            let text = format!("neocpu-scheme-db v4\n{bad}\n");
            match only_problem(&text) {
                DbError::Line { line: 2, reason } => {
                    assert!(reason.contains("invalid scheme"), "reason was: {reason}")
                }
                other => panic!("expected line error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_duplicate_rows() {
        let row = "host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1e-4";
        let text = format!("neocpu-scheme-db v4\n{row}\n{row}\n");
        match only_problem(&text) {
            DbError::Line { line: 3, reason } => {
                assert!(reason.contains("duplicate"), "reason was: {reason}")
            }
            other => panic!("expected duplicate error on line 3, got {other:?}"),
        }
    }

    #[test]
    fn bad_lines_are_skipped_and_reported() {
        let good = "host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1e-4";
        let text = format!(
            "neocpu-scheme-db v4\n{good}\ntotal garbage\n{good}\nhost 64x128x28x28k3x3s1x1p1x1 48 16 8 os 1e-4\n"
        );
        let (db, skipped) = SchemeDatabase::from_text(&text);
        // The good row survives; the duplicate, the garbage line, and the
        // non-dividing scheme are each reported with their line numbers.
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        assert_eq!(db.get("host", &p).unwrap().len(), 1);
        let lines: Vec<usize> = skipped
            .iter()
            .map(|e| match e {
                DbError::Line { line, .. } => *line,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lines, vec![3, 4, 5]);
    }

    #[test]
    fn surviving_schemes_are_sorted_by_time() {
        let text = "neocpu-scheme-db v4\n\
            host 64x128x28x28k3x3s1x1p1x1 8 32 4 os 2.5e-4\n\
            host 64x128x28x28k3x3s1x1p1x1 16 16 8 os 1.25e-4\n";
        let db = parse_clean(text);
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        let got = db.get("host", &p).unwrap();
        assert!(got[0].time <= got[1].time);
    }

    #[test]
    fn save_load_file() {
        let (p, schemes) = sample();
        let mut db = SchemeDatabase::new();
        db.replace("host", &p, schemes);
        let path = std::env::temp_dir().join("neocpu_db_test.txt");
        db.save(&path).unwrap();
        let (back, problems) = SchemeDatabase::load(&path).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(back.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let path = std::env::temp_dir().join("neocpu_db_does_not_exist.txt");
        assert!(matches!(SchemeDatabase::load(&path), Err(DbError::Io(_))));
    }
}
