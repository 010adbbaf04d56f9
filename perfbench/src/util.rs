//! Small shared helpers: argument lookup, content hashing, summary
//! statistics and a minimal JSON writer (the helper has no dependencies
//! beyond the workspace crates).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The value following `--name` in `args`.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

/// Every value following an occurrence of `--name`.
pub fn flags(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

/// A required flag, parsed.
pub fn need<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or(format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad {name} value `{v}`"))
}

/// A fast 64-bit content hash (word-at-a-time multiply-rotate; a
/// checksum for byte-identity checks, not a cryptographic digest).
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8-byte chunks"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(23) ^ u64::from(b)).wrapping_mul(K);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Order-independent hash of a tab-separated answer: the header line
/// followed by the sorted row lines. Two answers hash equal exactly when
/// they have the same columns and the same set of rows.
pub fn answer_hash(header: &str, rows: &mut [String]) -> u64 {
    rows.sort_unstable();
    let mut buf = String::with_capacity(header.len() + rows.len() * 32);
    buf.push_str(header);
    for r in rows.iter() {
        buf.push('\n');
        buf.push_str(r);
    }
    hash64(buf.as_bytes())
}

/// The `p`-quantile (0..=1) of a sample by nearest rank; 0 when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    quantile(&v, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A JSON value, just rich enough for the helper's reports.
pub enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts into an object (no-op on other variants).
    pub fn set(&mut self, key: &str, v: Json) {
        if let Json::Obj(m) = self {
            m.insert(key.to_string(), v);
        }
    }

    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `contents` to `path` through a temporary file and a rename, so
/// an interrupted run never leaves a half-written cache file behind.
pub fn write_atomic(path: &std::path::Path, contents: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", path.display()))
}
