//! Textual specifications for predictors, confidence mechanisms, and index
//! functions, e.g. `gshare:16:16`, `resetting:16`, `pcxorbhr:12`.
//!
//! This grammar is the configuration surface shared by the `cira` CLI and
//! the `cira-serve` wire protocol's `HELLO` negotiation: both sides parse
//! the same strings into the same structures, and every malformed spec is
//! a recoverable [`SpecError`] (never a panic), so a bad `HELLO` can be
//! rejected per-connection.
//!
//! Each grammar has a typed form ([`PredictorSpec`], [`IndexForm`],
//! [`InitSpec`], [`MechanismSpec`]) whose [`FromStr`] accepts every
//! spelling the grammar allows and whose [`Display`](fmt::Display)
//! renders the canonical one — so `s.parse()?.to_string()` normalizes a
//! spec (shorthands like `gshare64k` included), and
//! `display(x).parse() == x` holds for every form (the round-trip
//! property the tests drive from an exhaustive table). The historical
//! `parse_*` functions validate a string and build the simulator object
//! in one step.

use std::fmt;
use std::str::FromStr;

use cira_core::one_level::{MappedKey, OneLevelCir, ResettingConfidence, SaturatingConfidence};
use cira_core::two_level::TwoLevelCir;
use cira_core::{ConfidenceMechanism, IndexSpec, InitPolicy, SelfConfidence};
use cira_predictor::{
    Agree, Bimodal, BranchPredictor, GSelect, Gshare, LocalTwoLevel, StaticDirection, Tage,
    TageScLite,
};

/// Error for unparseable specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What kind of spec was being parsed.
    pub kind: &'static str,
    /// The offending input.
    pub input: String,
    /// Accepted forms.
    pub usage: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} spec {:?}; expected one of: {}",
            self.kind, self.input, self.usage
        )
    }
}

impl std::error::Error for SpecError {}

fn err(kind: &'static str, input: &str, usage: &'static str) -> SpecError {
    cira_obs::debug!("spec rejected", kind = kind, input = input);
    SpecError {
        kind,
        input: input.to_owned(),
        usage,
    }
}

fn split(input: &str) -> (&str, Vec<&str>) {
    let mut parts = input.split(':');
    let head = parts.next().unwrap_or("");
    (head, parts.collect())
}

fn parse_bits(
    raw: &str,
    kind: &'static str,
    input: &str,
    usage: &'static str,
) -> Result<u32, SpecError> {
    raw.parse::<u32>()
        .ok()
        .filter(|b| (1..=28).contains(b))
        .ok_or_else(|| err(kind, input, usage))
}

/// A validated predictor specification; see [`parse_predictor`] for the
/// grammar. `Display` renders the canonical string (shorthands like
/// `gshare64k` normalize to their explicit form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSpec {
    /// `gshare:<table_bits>:<history_bits>`
    Gshare {
        /// log2 table entries.
        table_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// `gselect:<table_bits>:<history_bits>`
    GSelect {
        /// log2 table entries.
        table_bits: u32,
        /// Global history length.
        history_bits: u32,
    },
    /// `bimodal:<bits>`
    Bimodal {
        /// log2 table entries.
        bits: u32,
    },
    /// `local:<bht_bits>:<hist_bits>`
    Local {
        /// log2 BHT entries.
        bht_bits: u32,
        /// Per-branch history length.
        history_bits: u32,
    },
    /// `agree:<table_bits>:<history_bits>:<bias_bits>`
    Agree {
        /// log2 direction-table entries.
        table_bits: u32,
        /// Global history length.
        history_bits: u32,
        /// log2 bias-table entries.
        bias_bits: u32,
    },
    /// `tage:<base_bits>:<ncomp>:<minlen>:<maxlen>[:tag_bits]`
    Tage {
        /// log2 base-bimodal entries (tagged components get 2 fewer bits).
        base_bits: u32,
        /// Number of tagged components (2..=[`Tage::MAX_COMPONENTS`]).
        ncomp: u32,
        /// Shortest geometric history length.
        min_len: u32,
        /// Longest geometric history length (<= 64, the driver BHR width).
        max_len: u32,
        /// Partial-tag width (4..=15; defaults to 11 when omitted).
        tag_bits: u32,
    },
    /// `tage-sc-lite:<base_bits>:<ncomp>:<minlen>:<maxlen>[:tag_bits]`
    TageScLite {
        /// log2 base-bimodal entries (tagged components get 2 fewer bits).
        base_bits: u32,
        /// Number of tagged components (2..=[`Tage::MAX_COMPONENTS`]).
        ncomp: u32,
        /// Shortest geometric history length.
        min_len: u32,
        /// Longest geometric history length (<= 64, the driver BHR width).
        max_len: u32,
        /// Partial-tag width (4..=15; defaults to 11 when omitted).
        tag_bits: u32,
    },
    /// `taken`
    Taken,
    /// `not-taken`
    NotTaken,
}

const PREDICTOR_USAGE: &str = "gshare:T:H, gshare64k, gshare4k, bimodal:B, gselect:T:H, \
                               local:B:H, agree:T:H:B, tage:B:N:MIN:MAX[:TAG], \
                               tage-sc-lite:B:N:MIN:MAX[:TAG], tage64k, tage-sc-lite64k, \
                               taken, not-taken";

/// TAGE defaults and bounds shared by the parser and the builders; the
/// parser mirrors [`Tage::new`]'s panics as recoverable [`SpecError`]s so
/// a hostile `HELLO` can never abort a server.
const TAGE_DEFAULT_TAG_BITS: u32 = 11;

/// Validates the TAGE parameter tuple, returning it on success.
fn check_tage(
    input: &str,
    base_bits: u32,
    ncomp: u32,
    min_len: u32,
    max_len: u32,
    tag_bits: u32,
) -> Result<(u32, u32, u32, u32, u32), SpecError> {
    let ok = (3..=28).contains(&base_bits)
        && (2..=Tage::MAX_COMPONENTS).contains(&ncomp)
        && (4..=15).contains(&tag_bits)
        && min_len >= 1
        && min_len < max_len
        && max_len <= 64
        && max_len - min_len + 1 >= ncomp;
    if ok {
        Ok((base_bits, ncomp, min_len, max_len, tag_bits))
    } else {
        Err(err("predictor", input, PREDICTOR_USAGE))
    }
}

impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => write!(f, "gshare:{table_bits}:{history_bits}"),
            PredictorSpec::GSelect {
                table_bits,
                history_bits,
            } => write!(f, "gselect:{table_bits}:{history_bits}"),
            PredictorSpec::Bimodal { bits } => write!(f, "bimodal:{bits}"),
            PredictorSpec::Local {
                bht_bits,
                history_bits,
            } => write!(f, "local:{bht_bits}:{history_bits}"),
            PredictorSpec::Agree {
                table_bits,
                history_bits,
                bias_bits,
            } => write!(f, "agree:{table_bits}:{history_bits}:{bias_bits}"),
            PredictorSpec::Tage {
                base_bits,
                ncomp,
                min_len,
                max_len,
                tag_bits,
            } => write!(f, "tage:{base_bits}:{ncomp}:{min_len}:{max_len}:{tag_bits}"),
            PredictorSpec::TageScLite {
                base_bits,
                ncomp,
                min_len,
                max_len,
                tag_bits,
            } => write!(
                f,
                "tage-sc-lite:{base_bits}:{ncomp}:{min_len}:{max_len}:{tag_bits}"
            ),
            PredictorSpec::Taken => write!(f, "taken"),
            PredictorSpec::NotTaken => write!(f, "not-taken"),
        }
    }
}

impl FromStr for PredictorSpec {
    type Err = SpecError;

    fn from_str(input: &str) -> Result<Self, SpecError> {
        let kind = "predictor";
        let (head, rest) = split(input);
        let bits = |raw| parse_bits(raw, kind, input, PREDICTOR_USAGE);
        match (head, rest.as_slice()) {
            ("gshare64k", []) => Ok(PredictorSpec::Gshare {
                table_bits: 16,
                history_bits: 16,
            }),
            ("gshare4k", []) => Ok(PredictorSpec::Gshare {
                table_bits: 12,
                history_bits: 12,
            }),
            ("gshare", [t, h]) => {
                let (table_bits, history_bits) = (bits(t)?, bits(h)?);
                if history_bits > table_bits {
                    return Err(err(kind, input, PREDICTOR_USAGE));
                }
                Ok(PredictorSpec::Gshare {
                    table_bits,
                    history_bits,
                })
            }
            ("gselect", [t, h]) => {
                let (table_bits, history_bits) = (bits(t)?, bits(h)?);
                if history_bits > table_bits {
                    return Err(err(kind, input, PREDICTOR_USAGE));
                }
                Ok(PredictorSpec::GSelect {
                    table_bits,
                    history_bits,
                })
            }
            ("bimodal", [b]) => Ok(PredictorSpec::Bimodal { bits: bits(b)? }),
            ("local", [b, h]) => Ok(PredictorSpec::Local {
                bht_bits: bits(b)?,
                history_bits: bits(h)?,
            }),
            ("agree", [t, h, b]) => {
                let (table_bits, history_bits, bias_bits) = (bits(t)?, bits(h)?, bits(b)?);
                if history_bits > table_bits {
                    return Err(err(kind, input, PREDICTOR_USAGE));
                }
                Ok(PredictorSpec::Agree {
                    table_bits,
                    history_bits,
                    bias_bits,
                })
            }
            ("tage64k", []) => Ok(PredictorSpec::Tage {
                base_bits: 14,
                ncomp: 7,
                min_len: 4,
                max_len: 64,
                tag_bits: 11,
            }),
            ("tage-sc-lite64k", []) => Ok(PredictorSpec::TageScLite {
                base_bits: 14,
                ncomp: 7,
                min_len: 4,
                max_len: 64,
                tag_bits: 11,
            }),
            ("tage" | "tage-sc-lite", [b, n, lo, hi] | [b, n, lo, hi, _]) => {
                let tag = match rest.as_slice() {
                    [_, _, _, _, t] => bits(t)?,
                    _ => TAGE_DEFAULT_TAG_BITS,
                };
                let raw = |r: &str| {
                    r.parse::<u32>()
                        .map_err(|_| err(kind, input, PREDICTOR_USAGE))
                };
                let (base_bits, ncomp, min_len, max_len, tag_bits) =
                    check_tage(input, bits(b)?, raw(n)?, raw(lo)?, raw(hi)?, tag)?;
                if head == "tage" {
                    Ok(PredictorSpec::Tage {
                        base_bits,
                        ncomp,
                        min_len,
                        max_len,
                        tag_bits,
                    })
                } else {
                    Ok(PredictorSpec::TageScLite {
                        base_bits,
                        ncomp,
                        min_len,
                        max_len,
                        tag_bits,
                    })
                }
            }
            ("taken", []) => Ok(PredictorSpec::Taken),
            ("not-taken", []) => Ok(PredictorSpec::NotTaken),
            _ => Err(err(kind, input, PREDICTOR_USAGE)),
        }
    }
}

impl PredictorSpec {
    /// Constructs the predictor this spec describes.
    pub fn build(&self) -> Box<dyn BranchPredictor + Send> {
        match *self {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => Box::new(Gshare::new(table_bits, history_bits)),
            PredictorSpec::GSelect {
                table_bits,
                history_bits,
            } => Box::new(GSelect::new(table_bits, history_bits)),
            PredictorSpec::Bimodal { bits } => Box::new(Bimodal::new(bits)),
            PredictorSpec::Local {
                bht_bits,
                history_bits,
            } => Box::new(LocalTwoLevel::new(bht_bits, history_bits)),
            PredictorSpec::Agree {
                table_bits,
                history_bits,
                bias_bits,
            } => Box::new(Agree::new(table_bits, history_bits, bias_bits)),
            PredictorSpec::Tage {
                base_bits,
                ncomp,
                min_len,
                max_len,
                tag_bits,
            } => Box::new(Tage::new(base_bits, ncomp, min_len, max_len, tag_bits)),
            PredictorSpec::TageScLite {
                base_bits,
                ncomp,
                min_len,
                max_len,
                tag_bits,
            } => Box::new(TageScLite::new(base_bits, ncomp, min_len, max_len, tag_bits)),
            PredictorSpec::Taken => Box::new(StaticDirection::always_taken()),
            PredictorSpec::NotTaken => Box::new(StaticDirection::always_not_taken()),
        }
    }
}

/// A validated index specification; see [`parse_index`] for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexForm {
    /// `pc:<bits>`
    Pc(u32),
    /// `bhr:<bits>`
    Bhr(u32),
    /// `pcxorbhr:<bits>`
    PcXorBhr(u32),
    /// `pcconcatbhr:<bits>` (at least 2 bits: one PC, one BHR)
    PcConcatBhr(u32),
    /// `gcir:<bits>`
    Gcir(u32),
}

const INDEX_USAGE: &str = "pc:B, bhr:B, pcxorbhr:B, pcconcatbhr:B, gcir:B";

impl fmt::Display for IndexForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexForm::Pc(b) => write!(f, "pc:{b}"),
            IndexForm::Bhr(b) => write!(f, "bhr:{b}"),
            IndexForm::PcXorBhr(b) => write!(f, "pcxorbhr:{b}"),
            IndexForm::PcConcatBhr(b) => write!(f, "pcconcatbhr:{b}"),
            IndexForm::Gcir(b) => write!(f, "gcir:{b}"),
        }
    }
}

impl FromStr for IndexForm {
    type Err = SpecError;

    fn from_str(input: &str) -> Result<Self, SpecError> {
        let kind = "index";
        let (head, rest) = split(input);
        let [bits] = rest.as_slice() else {
            return Err(err(kind, input, INDEX_USAGE));
        };
        let bits = parse_bits(bits, kind, input, INDEX_USAGE)?;
        match head {
            "pc" => Ok(IndexForm::Pc(bits)),
            "bhr" => Ok(IndexForm::Bhr(bits)),
            "pcxorbhr" => Ok(IndexForm::PcXorBhr(bits)),
            "pcconcatbhr" if bits >= 2 => Ok(IndexForm::PcConcatBhr(bits)),
            "gcir" => Ok(IndexForm::Gcir(bits)),
            _ => Err(err(kind, input, INDEX_USAGE)),
        }
    }
}

impl IndexForm {
    /// Constructs the [`IndexSpec`] this form describes.
    pub fn build(&self) -> IndexSpec {
        match *self {
            IndexForm::Pc(b) => IndexSpec::pc(b),
            IndexForm::Bhr(b) => IndexSpec::bhr(b),
            IndexForm::PcXorBhr(b) => IndexSpec::pc_xor_bhr(b),
            IndexForm::PcConcatBhr(b) => IndexSpec::pc_concat_bhr(b),
            IndexForm::Gcir(b) => IndexSpec::global_cir(b),
        }
    }
}

/// A validated initialization policy; see [`parse_init`] for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitSpec {
    /// `ones`
    Ones,
    /// `zeros`
    Zeros,
    /// `lastbit`
    LastBit,
    /// `random:<seed>`
    Random(u64),
}

const INIT_USAGE: &str = "ones, zeros, lastbit, random:SEED";

impl fmt::Display for InitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitSpec::Ones => write!(f, "ones"),
            InitSpec::Zeros => write!(f, "zeros"),
            InitSpec::LastBit => write!(f, "lastbit"),
            InitSpec::Random(seed) => write!(f, "random:{seed}"),
        }
    }
}

impl FromStr for InitSpec {
    type Err = SpecError;

    fn from_str(input: &str) -> Result<Self, SpecError> {
        let kind = "init";
        let (head, rest) = split(input);
        match (head, rest.as_slice()) {
            ("ones", []) => Ok(InitSpec::Ones),
            ("zeros", []) => Ok(InitSpec::Zeros),
            ("lastbit", []) => Ok(InitSpec::LastBit),
            ("random", [seed]) => seed
                .parse::<u64>()
                .map(InitSpec::Random)
                .map_err(|_| err(kind, input, INIT_USAGE)),
            _ => Err(err(kind, input, INIT_USAGE)),
        }
    }
}

impl InitSpec {
    /// Constructs the [`InitPolicy`] this form describes.
    pub fn build(&self) -> InitPolicy {
        match *self {
            InitSpec::Ones => InitPolicy::AllOnes,
            InitSpec::Zeros => InitPolicy::AllZeros,
            InitSpec::LastBit => InitPolicy::LastBit,
            InitSpec::Random(seed) => InitPolicy::Random(seed),
        }
    }
}

/// The two-level table variants of `two-level:<variant>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLevelVariant {
    /// `pc-cir`
    PcCir,
    /// `pcxorbhr-cir`
    PcXorBhrCir,
    /// `pcxorbhr-cirxorpcxorbhr`
    PcXorBhrCirXorPcXorBhr,
}

/// A validated confidence-mechanism specification; see
/// [`parse_mechanism`] for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismSpec {
    /// `cir:<width>` — full CIRs, ideal-reduction keys.
    Cir(u32),
    /// `ones-count:<width>`
    OnesCount(u32),
    /// `saturating:<max>`
    Saturating(u32),
    /// `resetting:<max>`
    Resetting(u32),
    /// `two-level:<variant>` (ignores the session's index/init).
    TwoLevel(TwoLevelVariant),
    /// `self:<predictor-spec>` — bucket on the predictor's own strength
    /// via a shadow instance of the named predictor (ignores the
    /// session's index/init). The inner spec should match the session
    /// predictor; the CLI defaults it accordingly.
    SelfConf(PredictorSpec),
}

const MECHANISM_USAGE: &str = "cir:W, ones-count:W, saturating:MAX, resetting:MAX, \
                               two-level:{pc-cir|pcxorbhr-cir|pcxorbhr-cirxorpcxorbhr}, \
                               self:PREDICTOR";

impl fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismSpec::Cir(w) => write!(f, "cir:{w}"),
            MechanismSpec::OnesCount(w) => write!(f, "ones-count:{w}"),
            MechanismSpec::Saturating(m) => write!(f, "saturating:{m}"),
            MechanismSpec::Resetting(m) => write!(f, "resetting:{m}"),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcCir) => write!(f, "two-level:pc-cir"),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCir) => {
                write!(f, "two-level:pcxorbhr-cir")
            }
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCirXorPcXorBhr) => {
                write!(f, "two-level:pcxorbhr-cirxorpcxorbhr")
            }
            MechanismSpec::SelfConf(inner) => write!(f, "self:{inner}"),
        }
    }
}

impl FromStr for MechanismSpec {
    type Err = SpecError;

    fn from_str(input: &str) -> Result<Self, SpecError> {
        let kind = "mechanism";
        // `self:` wraps a whole predictor spec (which contains colons of
        // its own), so it is handled before the generic head:parts split.
        if let Some(inner) = input.strip_prefix("self:") {
            return inner
                .parse::<PredictorSpec>()
                .map(MechanismSpec::SelfConf)
                .map_err(|_| err(kind, input, MECHANISM_USAGE));
        }
        let (head, rest) = split(input);
        let width = |raw: &str| {
            raw.parse::<u32>()
                .ok()
                .filter(|w| (1..=32).contains(w))
                .ok_or_else(|| err(kind, input, MECHANISM_USAGE))
        };
        let max = |raw: &str| {
            raw.parse::<u32>()
                .ok()
                .filter(|&m| m > 0)
                .ok_or_else(|| err(kind, input, MECHANISM_USAGE))
        };
        match (head, rest.as_slice()) {
            ("cir", [w]) => Ok(MechanismSpec::Cir(width(w)?)),
            ("ones-count", [w]) => Ok(MechanismSpec::OnesCount(width(w)?)),
            ("saturating", [m]) => Ok(MechanismSpec::Saturating(max(m)?)),
            ("resetting", [m]) => Ok(MechanismSpec::Resetting(max(m)?)),
            ("two-level", [variant]) => match *variant {
                "pc-cir" => Ok(MechanismSpec::TwoLevel(TwoLevelVariant::PcCir)),
                "pcxorbhr-cir" => Ok(MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCir)),
                "pcxorbhr-cirxorpcxorbhr" => Ok(MechanismSpec::TwoLevel(
                    TwoLevelVariant::PcXorBhrCirXorPcXorBhr,
                )),
                _ => Err(err(kind, input, MECHANISM_USAGE)),
            },
            _ => Err(err(kind, input, MECHANISM_USAGE)),
        }
    }
}

impl MechanismSpec {
    /// Constructs the mechanism this spec describes over `index`/`init`
    /// (two-level variants carry their own indexing and ignore both).
    pub fn build(
        &self,
        index: IndexSpec,
        init: InitPolicy,
    ) -> Box<dyn ConfidenceMechanism + Send> {
        match *self {
            MechanismSpec::Cir(w) => Box::new(OneLevelCir::new(index, w, init)),
            MechanismSpec::OnesCount(w) => {
                Box::new(MappedKey::ones_count(OneLevelCir::new(index, w, init)))
            }
            MechanismSpec::Saturating(m) => Box::new(SaturatingConfidence::new(index, m, init)),
            MechanismSpec::Resetting(m) => Box::new(ResettingConfidence::new(index, m, init)),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcCir) => {
                Box::new(TwoLevelCir::variant_pc_cir())
            }
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCir) => {
                Box::new(TwoLevelCir::variant_pcxorbhr_cir())
            }
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCirXorPcXorBhr) => {
                Box::new(TwoLevelCir::variant_pcxorbhr_cirxorpcxorbhr())
            }
            MechanismSpec::SelfConf(inner) => {
                Box::new(SelfConfidence::new(Box::new(move || inner.build())))
            }
        }
    }
}

/// Parses a predictor spec.
///
/// Forms: `gshare:<table_bits>:<history_bits>` · `bimodal:<bits>` ·
/// `gselect:<table_bits>:<history_bits>` · `local:<bht_bits>:<hist_bits>` ·
/// `agree:<table_bits>:<history_bits>:<bias_bits>` · `taken` ·
/// `not-taken`. Shorthands: `gshare64k` (= `gshare:16:16`), `gshare4k`
/// (= `gshare:12:12`).
pub fn parse_predictor(input: &str) -> Result<Box<dyn BranchPredictor + Send>, SpecError> {
    Ok(input.parse::<PredictorSpec>()?.build())
}

/// Parses an index spec: `pc:<bits>` · `bhr:<bits>` · `pcxorbhr:<bits>` ·
/// `pcconcatbhr:<bits>` · `gcir:<bits>`.
pub fn parse_index(input: &str) -> Result<IndexSpec, SpecError> {
    Ok(input.parse::<IndexForm>()?.build())
}

/// Parses an initialization policy: `ones` · `zeros` · `lastbit` ·
/// `random:<seed>`.
pub fn parse_init(input: &str) -> Result<InitPolicy, SpecError> {
    Ok(input.parse::<InitSpec>()?.build())
}

/// Parses a confidence-mechanism spec, given the index and init policy.
///
/// Forms: `cir:<width>` (full CIRs, ideal-reduction keys) ·
/// `ones-count:<width>` · `saturating:<max>` · `resetting:<max>` ·
/// `two-level:<variant>` where variant is `pc-cir`, `pcxorbhr-cir`, or
/// `pcxorbhr-cirxorpcxorbhr` (two-level variants ignore `index`/`init`).
pub fn parse_mechanism(
    input: &str,
    index: IndexSpec,
    init: InitPolicy,
) -> Result<Box<dyn ConfidenceMechanism + Send>, SpecError> {
    Ok(input.parse::<MechanismSpec>()?.build(index, init))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar per predictor form. The match forces a compile error
    /// when a variant is added without extending this table, so new spec
    /// forms cannot skip the round-trip property.
    fn all_predictor_forms() -> Vec<PredictorSpec> {
        let table = vec![
            PredictorSpec::Gshare {
                table_bits: 16,
                history_bits: 12,
            },
            PredictorSpec::GSelect {
                table_bits: 10,
                history_bits: 4,
            },
            PredictorSpec::Bimodal { bits: 12 },
            PredictorSpec::Local {
                bht_bits: 10,
                history_bits: 8,
            },
            PredictorSpec::Agree {
                table_bits: 12,
                history_bits: 12,
                bias_bits: 10,
            },
            PredictorSpec::Tage {
                base_bits: 10,
                ncomp: 4,
                min_len: 2,
                max_len: 32,
                tag_bits: 9,
            },
            PredictorSpec::TageScLite {
                base_bits: 10,
                ncomp: 4,
                min_len: 2,
                max_len: 32,
                tag_bits: 9,
            },
            PredictorSpec::Taken,
            PredictorSpec::NotTaken,
        ];
        for form in &table {
            match form {
                PredictorSpec::Gshare { .. } => (),
                PredictorSpec::GSelect { .. } => (),
                PredictorSpec::Bimodal { .. } => (),
                PredictorSpec::Local { .. } => (),
                PredictorSpec::Agree { .. } => (),
                PredictorSpec::Tage { .. } => (),
                PredictorSpec::TageScLite { .. } => (),
                PredictorSpec::Taken => (),
                PredictorSpec::NotTaken => (),
            }
        }
        table
    }

    fn all_index_forms() -> Vec<IndexForm> {
        let table = vec![
            IndexForm::Pc(8),
            IndexForm::Bhr(6),
            IndexForm::PcXorBhr(16),
            IndexForm::PcConcatBhr(8),
            IndexForm::Gcir(6),
        ];
        for form in &table {
            match form {
                IndexForm::Pc(_) => (),
                IndexForm::Bhr(_) => (),
                IndexForm::PcXorBhr(_) => (),
                IndexForm::PcConcatBhr(_) => (),
                IndexForm::Gcir(_) => (),
            }
        }
        table
    }

    fn all_init_forms() -> Vec<InitSpec> {
        let table = vec![
            InitSpec::Ones,
            InitSpec::Zeros,
            InitSpec::LastBit,
            InitSpec::Random(9),
        ];
        for form in &table {
            match form {
                InitSpec::Ones => (),
                InitSpec::Zeros => (),
                InitSpec::LastBit => (),
                InitSpec::Random(_) => (),
            }
        }
        table
    }

    fn all_mechanism_forms() -> Vec<MechanismSpec> {
        let table = vec![
            MechanismSpec::Cir(16),
            MechanismSpec::OnesCount(16),
            MechanismSpec::Saturating(8),
            MechanismSpec::Resetting(16),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcCir),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCir),
            MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCirXorPcXorBhr),
            MechanismSpec::SelfConf(PredictorSpec::Gshare {
                table_bits: 10,
                history_bits: 10,
            }),
            MechanismSpec::SelfConf(PredictorSpec::Tage {
                base_bits: 10,
                ncomp: 4,
                min_len: 2,
                max_len: 32,
                tag_bits: 9,
            }),
        ];
        for form in &table {
            match form {
                MechanismSpec::Cir(_) => (),
                MechanismSpec::OnesCount(_) => (),
                MechanismSpec::Saturating(_) => (),
                MechanismSpec::Resetting(_) => (),
                MechanismSpec::TwoLevel(TwoLevelVariant::PcCir) => (),
                MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCir) => (),
                MechanismSpec::TwoLevel(TwoLevelVariant::PcXorBhrCirXorPcXorBhr) => (),
                MechanismSpec::SelfConf(_) => (),
            }
        }
        table
    }

    /// The property: `Display` output parses back to the same form, and
    /// the one-step `parse_*` builders accept every canonical string.
    #[test]
    fn every_spec_form_round_trips_through_display() {
        for form in all_predictor_forms() {
            let text = form.to_string();
            assert_eq!(text.parse::<PredictorSpec>().unwrap(), form, "{text}");
            parse_predictor(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        for form in all_index_forms() {
            let text = form.to_string();
            assert_eq!(text.parse::<IndexForm>().unwrap(), form, "{text}");
            parse_index(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        for form in all_init_forms() {
            let text = form.to_string();
            assert_eq!(text.parse::<InitSpec>().unwrap(), form, "{text}");
            parse_init(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        for form in all_mechanism_forms() {
            let text = form.to_string();
            assert_eq!(text.parse::<MechanismSpec>().unwrap(), form, "{text}");
            parse_mechanism(&text, IndexSpec::pc(8), InitPolicy::AllOnes)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn shorthands_normalize_to_canonical_forms() {
        let spec: PredictorSpec = "gshare64k".parse().unwrap();
        assert_eq!(
            spec,
            PredictorSpec::Gshare {
                table_bits: 16,
                history_bits: 16
            }
        );
        assert_eq!(spec.to_string(), "gshare:16:16");
        let spec: PredictorSpec = "gshare4k".parse().unwrap();
        assert_eq!(spec.to_string(), "gshare:12:12");
    }

    #[test]
    fn predictor_specs() {
        assert_eq!(
            parse_predictor("gshare:10:8").unwrap().describe(),
            "gshare(10,8)"
        );
        assert_eq!(
            parse_predictor("gshare64k").unwrap().describe(),
            "gshare(16,16)"
        );
        assert_eq!(
            parse_predictor("gshare4k").unwrap().describe(),
            "gshare(12,12)"
        );
        assert_eq!(
            parse_predictor("bimodal:12").unwrap().describe(),
            "bimodal(12)"
        );
        assert_eq!(
            parse_predictor("gselect:10:4").unwrap().describe(),
            "gselect(10,4)"
        );
        assert_eq!(
            parse_predictor("local:10:8").unwrap().describe(),
            "local(10,8)"
        );
        assert_eq!(
            parse_predictor("agree:12:12:10").unwrap().describe(),
            "agree(12,12,bias 10)"
        );
        assert_eq!(
            parse_predictor("taken").unwrap().describe(),
            "static(taken)"
        );
        assert_eq!(
            parse_predictor("not-taken").unwrap().describe(),
            "static(not-taken)"
        );
    }

    #[test]
    fn tage_shorthands_and_default_tag_bits() {
        let spec: PredictorSpec = "tage64k".parse().unwrap();
        assert_eq!(spec.to_string(), "tage:14:7:4:64:11");
        let spec: PredictorSpec = "tage-sc-lite64k".parse().unwrap();
        assert_eq!(spec.to_string(), "tage-sc-lite:14:7:4:64:11");
        // Omitting the tag width picks the default, and the canonical
        // rendering always spells all five parameters.
        let spec: PredictorSpec = "tage:10:4:2:32".parse().unwrap();
        assert_eq!(spec.to_string(), "tage:10:4:2:32:11");
        assert_eq!(
            parse_predictor("tage:10:4:2:32:9").unwrap().describe(),
            "tage(10,4c,2..32,tag9)"
        );
        assert_eq!(
            parse_predictor("tage-sc-lite:10:4:2:32:9").unwrap().describe(),
            "tage-sc-lite(10,4c,2..32,tag9)"
        );
    }

    /// The parser's component bound is `Tage::MAX_COMPONENTS`, the size of
    /// the predictor's per-record hash arrays: the largest count parses
    /// and builds, one more is a SpecError rather than a panic in a shard.
    #[test]
    fn tage_component_bound_is_the_predictor_bound() {
        let max = Tage::MAX_COMPONENTS;
        for head in ["tage", "tage-sc-lite"] {
            let at_max = format!("{head}:10:{max}:2:64");
            assert!(parse_predictor(&at_max).is_ok(), "{at_max}");
            let over = format!("{head}:10:{}:2:64", max + 1);
            assert_eq!(over, format!("{head}:10:13:2:64"));
            let e = over.parse::<PredictorSpec>().unwrap_err();
            assert_eq!(e.kind, "predictor");
        }
    }

    /// Reject-path sweep for the TAGE grammar: every parameter bound the
    /// builder would panic on must come back as a recoverable SpecError
    /// (these strings can arrive over the wire in a HELLO).
    #[test]
    fn tage_spec_reject_paths() {
        for bad in [
            // structural
            "tage",
            "tage:10",
            "tage:10:4",
            "tage:10:4:2",
            "tage:10:4:2:32:9:9",
            "tage:10:4:2:32:x",
            "tage:x:4:2:32",
            // bad component counts
            "tage:10:0:2:32",
            "tage:10:1:2:32",
            "tage:10:13:2:32",
            // more components than distinct lengths
            "tage:10:8:2:8",
            // minlen >= maxlen, out-of-range lengths
            "tage:10:4:32:32",
            "tage:10:4:33:32",
            "tage:10:4:0:32",
            "tage:10:4:2:65",
            // base table too small for tagged components / too large
            "tage:2:4:2:32",
            "tage:29:4:2:32",
            // tag width out of range
            "tage:10:4:2:32:3",
            "tage:10:4:2:32:16",
            // same grammar, sc-lite head
            "tage-sc-lite:10:1:2:32",
            "tage-sc-lite:10:4:32:2",
        ] {
            let e = match bad.parse::<PredictorSpec>() {
                Err(e) => e,
                Ok(p) => panic!("{bad:?} parsed as {p}"),
            };
            assert_eq!(e.kind, "predictor");
        }
    }

    #[test]
    fn predictor_spec_errors() {
        for bad in [
            "",
            "gshare",
            "gshare:0:0",
            "gshare:8:9",
            "gshare:29:1",
            "frobnicate:3",
        ] {
            let e = match parse_predictor(bad) {
                Err(e) => e,
                Ok(p) => panic!("{bad:?} parsed as {}", p.describe()),
            };
            assert_eq!(e.kind, "predictor");
            assert!(e.to_string().contains("expected one of"));
        }
    }

    #[test]
    fn index_specs() {
        assert_eq!(parse_index("pc:8").unwrap().to_string(), "PC[8b]");
        assert_eq!(
            parse_index("pcxorbhr:16").unwrap().to_string(),
            "PC^BHR[16b]"
        );
        assert_eq!(
            parse_index("pcconcatbhr:8").unwrap().to_string(),
            "PC||BHR[8b]"
        );
        assert_eq!(parse_index("gcir:6").unwrap().to_string(), "GCIR[6b]");
        assert!(parse_index("pc").is_err());
        assert!(parse_index("pc:0").is_err());
        assert!(parse_index("pcconcatbhr:1").is_err());
        assert!(parse_index("what:8").is_err());
    }

    #[test]
    fn init_specs() {
        assert_eq!(parse_init("ones").unwrap(), InitPolicy::AllOnes);
        assert_eq!(parse_init("zeros").unwrap(), InitPolicy::AllZeros);
        assert_eq!(parse_init("lastbit").unwrap(), InitPolicy::LastBit);
        assert_eq!(parse_init("random:9").unwrap(), InitPolicy::Random(9));
        assert!(parse_init("random:x").is_err());
        assert!(parse_init("none").is_err());
    }

    #[test]
    fn mechanism_specs() {
        let idx = || IndexSpec::pc_xor_bhr(8);
        let m = parse_mechanism("resetting:16", idx(), InitPolicy::AllOnes).unwrap();
        assert!(m.describe().contains("resetting"));
        let m = parse_mechanism("saturating:16", idx(), InitPolicy::AllOnes).unwrap();
        assert!(m.describe().contains("saturating"));
        let m = parse_mechanism("cir:16", idx(), InitPolicy::AllOnes).unwrap();
        assert!(m.describe().contains("one-level CIR[16]"));
        let m = parse_mechanism("ones-count:16", idx(), InitPolicy::AllOnes).unwrap();
        assert!(m.describe().contains("ones-count"));
        let m = parse_mechanism("two-level:pcxorbhr-cir", idx(), InitPolicy::AllOnes).unwrap();
        assert!(m.describe().contains("two-level"));
        let m = parse_mechanism("self:tage:10:4:2:32:9", idx(), InitPolicy::AllOnes).unwrap();
        assert_eq!(m.describe(), "self-confidence(tage(10,4c,2..32,tag9))");
        assert_eq!(m.key_space(), Some(8));
        let m = parse_mechanism("self:gshare64k", idx(), InitPolicy::AllOnes).unwrap();
        assert_eq!(m.describe(), "self-confidence(gshare(16,16))");
    }

    #[test]
    fn mechanism_spec_errors() {
        let idx = || IndexSpec::pc(8);
        for bad in [
            "",
            "cir",
            "cir:0",
            "cir:33",
            "resetting:0",
            "two-level:nope",
            "zzz:1",
            // `self` needs an inner predictor spec (the CLI expands the
            // bare form before parsing), and the inner spec must be valid.
            "self",
            "self:",
            "self:frobnicate",
            "self:tage:10:1:2:32",
        ] {
            assert!(
                parse_mechanism(bad, idx(), InitPolicy::AllOnes).is_err(),
                "{bad}"
            );
        }
    }
}
