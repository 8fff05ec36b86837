//! Tag paths: structural addresses that support generalization.
//!
//! A *tag path* like `table[0]/tr[3]/td[1]` addresses one node. Replacing a
//! sibling index with a wildcard (`tr[*]`) generalizes it to a *set* of
//! nodes — this is exactly the hypothesis representation CopyCat's
//! structure learner generalizes over when it turns two pasted example rows
//! into "all the rows of this table" (§3.1).

use copycat_util::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Sibling-index constraint of a [`TagStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepIndex {
    /// Match only the n-th same-tag sibling (0-based).
    Nth(usize),
    /// Match every same-tag sibling.
    Any,
}

/// One component of a [`TagPath`]: a tag name plus a sibling-index
/// constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TagStep {
    /// Lower-cased tag name; text nodes use `#text`, comments `#comment`.
    pub tag: String,
    /// Which same-tag siblings this step matches.
    pub index: StepIndex,
}

impl TagStep {
    /// A step matching exactly the `n`-th same-tag sibling.
    pub fn nth(tag: impl Into<String>, n: usize) -> Self {
        Self { tag: tag.into(), index: StepIndex::Nth(n) }
    }

    /// A step matching every same-tag sibling.
    pub fn any(tag: impl Into<String>) -> Self {
        Self { tag: tag.into(), index: StepIndex::Any }
    }

    /// Whether this step admits sibling index `i`.
    pub fn matches_index(&self, i: usize) -> bool {
        match self.index {
            StepIndex::Nth(n) => n == i,
            StepIndex::Any => true,
        }
    }

    /// True when `self` matches every node `other` matches (same tag and
    /// equal-or-looser index constraint).
    pub fn subsumes(&self, other: &TagStep) -> bool {
        self.tag == other.tag
            && match (self.index, other.index) {
                (StepIndex::Any, _) => true,
                (StepIndex::Nth(a), StepIndex::Nth(b)) => a == b,
                (StepIndex::Nth(_), StepIndex::Any) => false,
            }
    }
}

/// A root-to-node structural address, possibly wildcarded.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TagPath {
    steps: Vec<TagStep>,
}

impl ToJson for TagPath {
    /// A path serializes as its `Display` syntax (`table[0]/tr[*]`),
    /// which [`TagPath::parse`] round-trips.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for TagPath {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let s = j
            .as_str()
            .ok_or_else(|| JsonError::expected("tag-path string", j))?;
        TagPath::parse(s).ok_or_else(|| JsonError::new(format!("malformed tag path {s:?}")))
    }
}

impl TagPath {
    /// Build a path from its steps (root-first).
    pub fn new(steps: Vec<TagStep>) -> Self {
        Self { steps }
    }

    /// The steps, root-first.
    pub fn steps(&self) -> &[TagStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty path (addresses the root).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// A copy with step `i` wildcarded.
    pub fn wildcard_step(&self, i: usize) -> TagPath {
        let mut steps = self.steps.clone();
        if let Some(s) = steps.get_mut(i) {
            s.index = StepIndex::Any;
        }
        TagPath::new(steps)
    }

    /// The *least general generalization* of two concrete paths: same tags
    /// required at every step; indices that differ become wildcards. Returns
    /// `None` when lengths or tags differ (no common template).
    pub fn lgg(&self, other: &TagPath) -> Option<TagPath> {
        if self.len() != other.len() {
            return None;
        }
        let mut steps = Vec::with_capacity(self.len());
        for (a, b) in self.steps.iter().zip(other.steps.iter()) {
            if a.tag != b.tag {
                return None;
            }
            let index = match (a.index, b.index) {
                (StepIndex::Nth(x), StepIndex::Nth(y)) if x == y => StepIndex::Nth(x),
                _ => StepIndex::Any,
            };
            steps.push(TagStep { tag: a.tag.clone(), index });
        }
        Some(TagPath::new(steps))
    }

    /// True when `self` matches every node `other` matches.
    pub fn subsumes(&self, other: &TagPath) -> bool {
        self.len() == other.len()
            && self
                .steps
                .iter()
                .zip(other.steps.iter())
                .all(|(a, b)| a.subsumes(b))
    }

    /// Whether a concrete path (no wildcards) is matched by this pattern.
    pub fn matches(&self, concrete: &TagPath) -> bool {
        self.subsumes(concrete)
    }

    /// Parse the `Display` syntax back, e.g. `table[0]/tr[*]/td[1]`.
    /// Returns `None` on malformed input.
    pub fn parse(s: &str) -> Option<TagPath> {
        if s.is_empty() {
            return Some(TagPath::default());
        }
        let mut steps = Vec::new();
        for part in s.split('/') {
            let open = part.find('[')?;
            if !part.ends_with(']') {
                return None;
            }
            let tag = &part[..open];
            let idx = &part[open + 1..part.len() - 1];
            let index = if idx == "*" {
                StepIndex::Any
            } else {
                StepIndex::Nth(idx.parse().ok()?)
            };
            steps.push(TagStep { tag: tag.to_string(), index });
        }
        Some(TagPath::new(steps))
    }
}

impl fmt::Display for TagPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            match s.index {
                StepIndex::Nth(n) => write!(f, "{}[{}]", s.tag, n)?,
                StepIndex::Any => write!(f, "{}[*]", s.tag)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> TagPath {
        TagPath::parse(s).expect("valid path literal")
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["table[0]/tr[*]/td[1]", "ul[2]/li[0]", ""] {
            assert_eq!(p(s).to_string(), s);
        }
        assert!(TagPath::parse("table/tr").is_none());
        assert!(TagPath::parse("table[x]").is_none());
    }

    #[test]
    fn lgg_generalizes_differing_indices() {
        let a = p("table[0]/tr[1]/td[2]");
        let b = p("table[0]/tr[5]/td[2]");
        let g = a.lgg(&b).expect("same shape");
        assert_eq!(g.to_string(), "table[0]/tr[*]/td[2]");
        assert!(g.subsumes(&a) && g.subsumes(&b));
    }

    #[test]
    fn lgg_fails_on_shape_mismatch() {
        assert!(p("ul[0]/li[1]").lgg(&p("ol[0]/li[1]")).is_none());
        assert!(p("ul[0]/li[1]").lgg(&p("ul[0]")).is_none());
    }

    #[test]
    fn json_roundtrip() {
        for s in ["table[0]/tr[*]/td[1]", ""] {
            let path = p(s);
            let back =
                TagPath::from_json(&Json::parse(&path.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back, path);
        }
        assert!(TagPath::from_json(&Json::str("not[a]path[")).is_err());
    }

    #[test]
    fn subsumption_is_reflexive_and_ordered() {
        let conc = p("div[0]/span[3]");
        let wild = p("div[0]/span[*]");
        assert!(conc.subsumes(&conc));
        assert!(wild.subsumes(&conc));
        assert!(!conc.subsumes(&wild));
    }
}
