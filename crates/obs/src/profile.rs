//! Strict reader for the `ade-site-profile-v1` JSON that
//! `ade_interp::SiteProfile::to_json` (and `adec --profile`) emits.
//!
//! The reader is deliberately unforgiving: it accepts exactly the fields
//! the v1 writer produces, rejects unknown schema versions and unknown
//! fields with a typed [`ProfileReadError`], and cross-checks the
//! redundant counts (`total_ops` per site and in `totals`) against the
//! per-operation entries. A profile that passes is internally consistent
//! and safe to feed back into selection (`adec --profile-in`).

use std::fmt;

use crate::json::Value;

/// The schema tag this reader accepts.
pub const PROFILE_SCHEMA: &str = "ade-site-profile-v1";

/// Why a profile failed to read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileReadError {
    /// The input is not well-formed JSON.
    Json(String),
    /// The input is JSON but carries a different (or missing) schema
    /// version tag.
    Version {
        /// The `schema` value found (empty when absent or non-string).
        found: String,
    },
    /// The input is versioned v1 JSON but violates the v1 shape: a
    /// missing or mistyped field, an unknown field or operation name, or
    /// an inconsistent redundant count.
    Schema(String),
}

impl fmt::Display for ProfileReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileReadError::Json(e) => write!(f, "malformed JSON: {e}"),
            ProfileReadError::Version { found } if found.is_empty() => {
                write!(f, "missing schema tag (expected \"{PROFILE_SCHEMA}\")")
            }
            ProfileReadError::Version { found } => {
                write!(f, "unsupported schema \"{found}\" (expected \"{PROFILE_SCHEMA}\")")
            }
            ProfileReadError::Schema(e) => write!(f, "invalid {PROFILE_SCHEMA}: {e}"),
        }
    }
}

impl std::error::Error for ProfileReadError {}

/// Measured operation counts bucketed by operation kind, independent of
/// which implementation performed them (the implementation is the thing
/// feedback-directed selection wants to *change*, so the mix abstracts
/// over it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Keyed reads.
    pub read: u64,
    /// Keyed writes.
    pub write: u64,
    /// Insertions.
    pub insert: u64,
    /// Removals.
    pub remove: u64,
    /// Membership probes.
    pub has: u64,
    /// Size queries.
    pub size: u64,
    /// Clears.
    pub clear: u64,
    /// Elements yielded by iteration.
    pub iter_elem: u64,
    /// Machine words scanned by bit-array iteration.
    pub iter_word: u64,
    /// Elements moved by element-at-a-time unions.
    pub union_elem: u64,
    /// Machine words OR-ed by bit-parallel unions.
    pub union_word: u64,
}

impl OpMix {
    /// The operation-kind names this mix buckets, in declaration order
    /// (matching `ade_interp::CollOp`'s debug names).
    pub const OP_NAMES: [&'static str; 11] = [
        "Read", "Write", "Insert", "Remove", "Has", "Size", "Clear", "IterElem", "IterWord",
        "UnionElem", "UnionWord",
    ];

    /// Adds `n` to the bucket named `op` (a `CollOp` debug name).
    /// Returns `false` — without recording anything — for unknown names.
    pub fn bump(&mut self, op: &str, n: u64) -> bool {
        let slot = match op {
            "Read" => &mut self.read,
            "Write" => &mut self.write,
            "Insert" => &mut self.insert,
            "Remove" => &mut self.remove,
            "Has" => &mut self.has,
            "Size" => &mut self.size,
            "Clear" => &mut self.clear,
            "IterElem" => &mut self.iter_elem,
            "IterWord" => &mut self.iter_word,
            "UnionElem" => &mut self.union_elem,
            "UnionWord" => &mut self.union_word,
            _ => return false,
        };
        *slot = slot.saturating_add(n);
        true
    }

    /// The buckets as `(name, count)` pairs, in [`OpMix::OP_NAMES`]
    /// order.
    pub fn entries(&self) -> [(&'static str, u64); 11] {
        [
            ("Read", self.read),
            ("Write", self.write),
            ("Insert", self.insert),
            ("Remove", self.remove),
            ("Has", self.has),
            ("Size", self.size),
            ("Clear", self.clear),
            ("IterElem", self.iter_elem),
            ("IterWord", self.iter_word),
            ("UnionElem", self.union_elem),
            ("UnionWord", self.union_word),
        ]
    }

    /// Sum of all buckets (saturating).
    pub fn total(&self) -> u64 {
        self.entries()
            .iter()
            .fold(0u64, |acc, (_, n)| acc.saturating_add(*n))
    }

    /// Element-wise saturating accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &OpMix) {
        self.read = self.read.saturating_add(other.read);
        self.write = self.write.saturating_add(other.write);
        self.insert = self.insert.saturating_add(other.insert);
        self.remove = self.remove.saturating_add(other.remove);
        self.has = self.has.saturating_add(other.has);
        self.size = self.size.saturating_add(other.size);
        self.clear = self.clear.saturating_add(other.clear);
        self.iter_elem = self.iter_elem.saturating_add(other.iter_elem);
        self.iter_word = self.iter_word.saturating_add(other.iter_word);
        self.union_elem = self.union_elem.saturating_add(other.union_elem);
        self.union_word = self.union_word.saturating_add(other.union_word);
    }
}

/// One instruction site of a read profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSite {
    /// Decoded instruction index within the function.
    pub inst: u64,
    /// The raw `(impl.op, count)` entries, in document order.
    pub ops: Vec<(String, u64)>,
    /// The site's counts bucketed by operation kind.
    pub mix: OpMix,
    /// Total operations at the site (validated against `ops`).
    pub total_ops: u64,
    /// Collection size high-water mark at the site.
    pub size_hwm: u64,
}

/// One function of a read profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileFunc {
    /// Function name (clones keep their `$ade` suffix).
    pub name: String,
    /// Active sites, in instruction order as written.
    pub sites: Vec<ProfileSite>,
    /// All sites' counts merged by operation kind.
    pub mix: OpMix,
    /// Maximum `size_hwm` over the function's sites.
    pub size_hwm: u64,
}

/// A validated `ade-site-profile-v1` document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileData {
    /// Functions with recorded activity, in declaration order.
    pub functions: Vec<ProfileFunc>,
    /// Whole-run operation total (validated against the sites).
    pub total_ops: u64,
}

impl ProfileData {
    /// The measured mix and size high-water mark for `name`, if the
    /// profile recorded any activity in that function.
    pub fn function(&self, name: &str) -> Option<&ProfileFunc> {
        self.functions.iter().find(|f| f.name == name)
    }
}

fn schema_err(msg: impl Into<String>) -> ProfileReadError {
    ProfileReadError::Schema(msg.into())
}

fn require_u64(v: &Value, what: &str) -> Result<u64, ProfileReadError> {
    v.as_u64()
        .ok_or_else(|| schema_err(format!("{what} must be an unsigned integer")))
}

/// A field the writer emits but the reader only shape-checks: modeled
/// costs are derived data (re-derivable from the counts), and
/// `write_f64` legitimately emits `null` for non-finite values.
fn require_number_or_null(v: &Value, what: &str) -> Result<(), ProfileReadError> {
    match v {
        Value::Number(_) | Value::Null => Ok(()),
        _ => Err(schema_err(format!("{what} must be a number or null"))),
    }
}

/// Reads and validates an `ade-site-profile-v1` document.
///
/// # Errors
///
/// [`ProfileReadError::Json`] for malformed JSON,
/// [`ProfileReadError::Version`] for a missing or different `schema`
/// tag, [`ProfileReadError::Schema`] for any v1 shape violation
/// (missing/unknown/mistyped fields, unknown operation names,
/// inconsistent redundant totals).
pub fn read_profile(text: &str) -> Result<ProfileData, ProfileReadError> {
    let root = Value::parse(text).map_err(ProfileReadError::Json)?;
    let entries = root
        .entries()
        .ok_or_else(|| schema_err("top level must be an object"))?;
    let schema = root.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != PROFILE_SCHEMA {
        return Err(ProfileReadError::Version {
            found: schema.to_string(),
        });
    }
    for (key, _) in entries {
        if !matches!(key.as_str(), "schema" | "functions" | "totals") {
            return Err(schema_err(format!("unknown top-level field \"{key}\"")));
        }
    }

    let functions_json = root
        .get("functions")
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err("\"functions\" must be an array"))?;
    let mut functions = Vec::with_capacity(functions_json.len());
    let mut run_total: u64 = 0;
    for func in functions_json {
        functions.push(read_function(func, &mut run_total)?);
    }

    let totals = root
        .get("totals")
        .filter(|v| v.entries().is_some())
        .ok_or_else(|| schema_err("\"totals\" must be an object"))?;
    for (key, value) in totals.entries().unwrap_or(&[]) {
        match key.as_str() {
            "total_ops" | "sparse_accesses" | "dense_accesses" => {
                require_u64(value, &format!("totals.{key}"))?;
            }
            "modeled_intel_ns" | "modeled_aarch64_ns" => {
                require_number_or_null(value, &format!("totals.{key}"))?;
            }
            other => return Err(schema_err(format!("unknown totals field \"{other}\""))),
        }
    }
    let total_ops = require_u64(
        totals
            .get("total_ops")
            .ok_or_else(|| schema_err("totals missing \"total_ops\""))?,
        "totals.total_ops",
    )?;
    if total_ops != run_total {
        return Err(schema_err(format!(
            "totals.total_ops is {total_ops} but the sites sum to {run_total}"
        )));
    }

    Ok(ProfileData {
        functions,
        total_ops,
    })
}

fn read_function(func: &Value, run_total: &mut u64) -> Result<ProfileFunc, ProfileReadError> {
    let entries = func
        .entries()
        .ok_or_else(|| schema_err("each function must be an object"))?;
    for (key, _) in entries {
        if !matches!(key.as_str(), "name" | "sites") {
            return Err(schema_err(format!("unknown function field \"{key}\"")));
        }
    }
    let name = func
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err("function \"name\" must be a string"))?;
    if name.is_empty() {
        return Err(schema_err("function \"name\" must be non-empty"));
    }
    let sites_json = func
        .get("sites")
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err(format!("function \"{name}\" \"sites\" must be an array")))?;
    let mut sites = Vec::with_capacity(sites_json.len());
    let mut mix = OpMix::default();
    let mut size_hwm = 0u64;
    for site in sites_json {
        let site = read_site(site, name)?;
        *run_total = run_total.saturating_add(site.total_ops);
        mix.merge(&site.mix);
        size_hwm = size_hwm.max(site.size_hwm);
        sites.push(site);
    }
    Ok(ProfileFunc {
        name: name.to_string(),
        sites,
        mix,
        size_hwm,
    })
}

fn read_site(site: &Value, func: &str) -> Result<ProfileSite, ProfileReadError> {
    let entries = site
        .entries()
        .ok_or_else(|| schema_err(format!("each site of \"{func}\" must be an object")))?;
    for (key, _) in entries {
        if !matches!(
            key.as_str(),
            "inst" | "ops" | "total_ops" | "size_hwm" | "modeled_intel_ns" | "modeled_aarch64_ns"
        ) {
            return Err(schema_err(format!("unknown site field \"{key}\" in \"{func}\"")));
        }
    }
    let inst = require_u64(
        site.get("inst")
            .ok_or_else(|| schema_err(format!("site of \"{func}\" missing \"inst\"")))?,
        "site \"inst\"",
    )?;
    let at = format!("\"{func}\"#{inst}");
    let ops_json = site
        .get("ops")
        .and_then(Value::entries)
        .ok_or_else(|| schema_err(format!("site {at} \"ops\" must be an object")))?;
    let mut ops = Vec::with_capacity(ops_json.len());
    let mut mix = OpMix::default();
    let mut op_sum: u64 = 0;
    for (key, value) in ops_json {
        let n = require_u64(value, &format!("site {at} op \"{key}\""))?;
        let Some((imp, op)) = key.split_once('.') else {
            return Err(schema_err(format!(
                "site {at} op key \"{key}\" is not of the form Impl.Op"
            )));
        };
        if imp.is_empty() || !mix.bump(op, n) {
            return Err(schema_err(format!("site {at} has unknown op key \"{key}\"")));
        }
        op_sum = op_sum.saturating_add(n);
        ops.push((key.clone(), n));
    }
    let total_ops = require_u64(
        site.get("total_ops")
            .ok_or_else(|| schema_err(format!("site {at} missing \"total_ops\"")))?,
        "site \"total_ops\"",
    )?;
    if total_ops != op_sum {
        return Err(schema_err(format!(
            "site {at} total_ops is {total_ops} but its ops sum to {op_sum}"
        )));
    }
    let size_hwm = require_u64(
        site.get("size_hwm")
            .ok_or_else(|| schema_err(format!("site {at} missing \"size_hwm\"")))?,
        "site \"size_hwm\"",
    )?;
    for derived in ["modeled_intel_ns", "modeled_aarch64_ns"] {
        let v = site
            .get(derived)
            .ok_or_else(|| schema_err(format!("site {at} missing \"{derived}\"")))?;
        require_number_or_null(v, &format!("site {at} \"{derived}\""))?;
    }
    Ok(ProfileSite {
        inst,
        ops,
        mix,
        total_ops,
        size_hwm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"schema":"ade-site-profile-v1","functions":[
  {"name":"main","sites":[
    {"inst":1,"ops":{"HashSet.Insert":10,"BitSet.IterWord":4},"total_ops":14,"size_hwm":10,"modeled_intel_ns":351.6,"modeled_aarch64_ns":320.0},
    {"inst":3,"ops":{"BitMap.Read":5},"total_ops":5,"size_hwm":0,"modeled_intel_ns":null,"modeled_aarch64_ns":14.1}]}
],"totals":{"total_ops":19,"sparse_accesses":10,"dense_accesses":9,"modeled_intel_ns":365.7,"modeled_aarch64_ns":334.1}}
"#;

    #[test]
    fn reads_the_v1_shape() {
        let p = read_profile(SAMPLE).expect("reads");
        assert_eq!(p.total_ops, 19);
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "main");
        assert_eq!(f.sites.len(), 2);
        assert_eq!(f.sites[0].inst, 1);
        assert_eq!(f.sites[0].mix.insert, 10);
        assert_eq!(f.sites[0].mix.iter_word, 4);
        assert_eq!(f.mix.read, 5);
        assert_eq!(f.mix.total(), 19);
        assert_eq!(f.size_hwm, 10);
        assert_eq!(p.function("main").map(|f| f.mix.insert), Some(10));
        assert!(p.function("nope").is_none());
    }

    #[test]
    fn rejects_other_versions() {
        let v2 = SAMPLE.replace("ade-site-profile-v1", "ade-site-profile-v2");
        assert_eq!(
            read_profile(&v2),
            Err(ProfileReadError::Version {
                found: "ade-site-profile-v2".to_string()
            })
        );
        assert!(matches!(
            read_profile("{\"functions\":[],\"totals\":{\"total_ops\":0}}"),
            Err(ProfileReadError::Version { found }) if found.is_empty()
        ));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(read_profile("{"), Err(ProfileReadError::Json(_))));
        assert!(matches!(read_profile(""), Err(ProfileReadError::Json(_))));
        assert!(matches!(read_profile("[1,2]"), Err(ProfileReadError::Schema(_))));
    }

    #[test]
    fn rejects_schema_violations() {
        for (mutation, what) in [
            (SAMPLE.replace("\"total_ops\":14", "\"total_ops\":15"), "site total drift"),
            (SAMPLE.replace("\"total_ops\":19", "\"total_ops\":18"), "run total drift"),
            (SAMPLE.replace("HashSet.Insert", "HashSet.Frob"), "unknown op"),
            (SAMPLE.replace("HashSet.Insert", "HashSetInsert"), "missing dot"),
            (SAMPLE.replace("\"inst\":1,", ""), "missing inst"),
            (SAMPLE.replace("\"size_hwm\":10", "\"size_hwm\":-1"), "negative count"),
            (SAMPLE.replace("\"name\":\"main\"", "\"name\":\"\""), "empty name"),
            (SAMPLE.replace("\"inst\":1", "\"inst\":1,\"extra\":0"), "unknown field"),
            (
                SAMPLE.replace("\"sparse_accesses\":10", "\"sparse_accesses\":\"10\""),
                "mistyped totals",
            ),
        ] {
            assert!(
                matches!(read_profile(&mutation), Err(ProfileReadError::Schema(_))),
                "{what} must be a schema error"
            );
        }
    }

    #[test]
    fn op_mix_buckets_and_merges() {
        let mut mix = OpMix::default();
        assert!(mix.bump("Read", 3));
        assert!(mix.bump("UnionWord", 2));
        assert!(!mix.bump("Frobnicate", 1));
        assert_eq!(mix.total(), 5);
        let mut other = OpMix::default();
        other.bump("Read", u64::MAX);
        mix.merge(&other);
        assert_eq!(mix.read, u64::MAX, "merge saturates");
        for name in OpMix::OP_NAMES {
            assert!(OpMix::default().bump(name, 1), "{name} must be a known bucket");
        }
    }
}
