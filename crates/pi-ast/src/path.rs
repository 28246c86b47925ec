//! Paths locate subtrees within a query AST.
//!
//! The paper writes paths as slash-separated child indices: `0/1/0` follows the first child of
//! the root, then its second child, then its first child (Table 1, Example 4.2).  The widget
//! mapping heuristic relies heavily on the *prefix* relation between paths — an ancestor widget
//! has a path that is a prefix of its descendants' paths — so [`Path`] provides cheap prefix
//! tests in addition to parsing/printing.

use std::fmt;
use std::str::FromStr;

/// Steps a path can hold without touching the heap.  Real query paths are short — the
/// deepest location in a typical SELECT is 5–7 steps — so almost every path the pipeline
/// makes (traversal, alignment, diff records, widgets) stays inline: `clone()` is a memcpy,
/// `child()` never allocates.  Deeper paths (nested subquery towers) spill to a `Vec`.
const INLINE_STEPS: usize = 8;

/// The storage behind a [`Path`]: inline up to [`INLINE_STEPS`] steps, heap beyond.
///
/// The representation is *not* canonical — a long path popped back under the inline limit
/// stays heap-allocated — so all comparisons and hashing go through [`Path::steps`], never
/// the representation.
#[derive(Debug, Clone)]
enum PathRep {
    /// `(length, steps)`; only the first `length` entries are meaningful.
    Inline(u8, [usize; INLINE_STEPS]),
    Heap(Vec<usize>),
}

/// The location of a subtree inside an AST: a sequence of 0-based child indices from the root.
///
/// The empty path designates the root node itself.
#[derive(Debug, Clone)]
pub struct Path(PathRep);

impl Default for Path {
    fn default() -> Self {
        Path::root()
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for Path {}

impl std::hash::Hash for Path {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Matches the old derive over `Vec<usize>`: a slice hash of the steps.
        self.steps().hash(state);
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic over steps, exactly the old derived `Vec` ordering.
        self.steps().cmp(other.steps())
    }
}

/// Error produced when parsing a textual path fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    /// The offending path segment.
    pub segment: String,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path segment `{}`", self.segment)
    }
}

impl std::error::Error for ParsePathError {}

impl Path {
    /// The root path (empty sequence of steps).
    pub fn root() -> Self {
        Path(PathRep::Inline(0, [0; INLINE_STEPS]))
    }

    /// Builds a path from a slice of steps, inline when it fits.
    fn from_slice(steps: &[usize]) -> Self {
        if steps.len() <= INLINE_STEPS {
            let mut inline = [0; INLINE_STEPS];
            inline[..steps.len()].copy_from_slice(steps);
            Path(PathRep::Inline(steps.len() as u8, inline))
        } else {
            Path(PathRep::Heap(steps.to_vec()))
        }
    }

    /// Builds a path from explicit steps.
    pub fn from_steps<I: IntoIterator<Item = usize>>(steps: I) -> Self {
        let mut path = Path::root();
        for step in steps {
            path.push(step);
        }
        path
    }

    /// The steps of the path, outermost first.
    pub fn steps(&self) -> &[usize] {
        match &self.0 {
            PathRep::Inline(len, steps) => &steps[..*len as usize],
            PathRep::Heap(steps) => steps,
        }
    }

    /// Number of steps; the root has depth 0.
    pub fn depth(&self) -> usize {
        match &self.0 {
            PathRep::Inline(len, _) => *len as usize,
            PathRep::Heap(steps) => steps.len(),
        }
    }

    /// True when this is the root path.
    pub fn is_root(&self) -> bool {
        self.depth() == 0
    }

    /// Returns a new path with `child` appended.
    pub fn child(&self, child: usize) -> Path {
        let mut out = self.clone();
        out.push(child);
        out
    }

    /// Appends a step in place.
    pub fn push(&mut self, child: usize) {
        match &mut self.0 {
            PathRep::Inline(len, steps) => {
                if (*len as usize) < INLINE_STEPS {
                    steps[*len as usize] = child;
                    *len += 1;
                } else {
                    // Spill to the heap: the inline capacity is a fast path, not a limit.
                    let mut spilled = steps.to_vec();
                    spilled.push(child);
                    self.0 = PathRep::Heap(spilled);
                }
            }
            PathRep::Heap(steps) => steps.push(child),
        }
    }

    /// Removes and returns the last step.
    pub fn pop(&mut self) -> Option<usize> {
        match &mut self.0 {
            PathRep::Inline(len, steps) => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(steps[*len as usize])
                }
            }
            PathRep::Heap(steps) => steps.pop(),
        }
    }

    /// The parent path, or `None` if this is the root.
    pub fn parent(&self) -> Option<Path> {
        let steps = self.steps();
        if steps.is_empty() {
            None
        } else {
            Some(Path::from_slice(&steps[..steps.len() - 1]))
        }
    }

    /// The last step of the path (the index of this subtree within its parent).
    pub fn last(&self) -> Option<usize> {
        self.steps().last().copied()
    }

    /// True when `self` is a (non-strict) prefix of `other`, i.e. `self` is an ancestor-or-self
    /// location of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        let (a, b) = (self.steps(), other.steps());
        b.len() >= a.len() && b[..a.len()] == *a
    }

    /// True when `self` is a strict prefix of `other`.
    pub fn is_strict_prefix_of(&self, other: &Path) -> bool {
        let (a, b) = (self.steps(), other.steps());
        b.len() > a.len() && b[..a.len()] == *a
    }

    /// The longest common prefix of two paths (their least common ancestor location).
    pub fn common_prefix(&self, other: &Path) -> Path {
        let (a, b) = (self.steps(), other.steps());
        let n = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        Path::from_slice(&a[..n])
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let steps = self.steps();
        if steps.is_empty() {
            return f.write_str("/");
        }
        let mut first = true;
        for step in steps {
            if !first {
                f.write_str("/")?;
            }
            write!(f, "{step}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = ParsePathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "/" {
            return Ok(Path::root());
        }
        let mut path = Path::root();
        for seg in s.trim_matches('/').split('/') {
            let idx: usize = seg.parse().map_err(|_| ParsePathError {
                segment: seg.to_string(),
            })?;
            path.push(idx);
        }
        Ok(path)
    }
}

impl From<Vec<usize>> for Path {
    fn from(steps: Vec<usize>) -> Self {
        if steps.len() > INLINE_STEPS {
            // Deep path: move the caller's allocation straight in instead of re-copying.
            Path(PathRep::Heap(steps))
        } else {
            Path::from_slice(&steps)
        }
    }
}

impl From<&[usize]> for Path {
    fn from(steps: &[usize]) -> Self {
        Path::from_slice(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for text in ["0/1/0", "2/0/0/1", "0", "7/3"] {
            let p: Path = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
        }
        let root: Path = "/".parse().unwrap();
        assert!(root.is_root());
        assert_eq!(root.to_string(), "/");
        let empty: Path = "".parse().unwrap();
        assert!(empty.is_root());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("0/x/1".parse::<Path>().is_err());
        assert!("a".parse::<Path>().is_err());
    }

    #[test]
    fn prefix_relations() {
        let a: Path = "0/1".parse().unwrap();
        let b: Path = "0/1/0".parse().unwrap();
        let c: Path = "0/2".parse().unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
        assert!(a.is_strict_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(!a.is_prefix_of(&c));
        assert!(Path::root().is_prefix_of(&c));
    }

    #[test]
    fn parent_child_navigation() {
        let p: Path = "0/1/2".parse().unwrap();
        assert_eq!(p.parent().unwrap().to_string(), "0/1");
        assert_eq!(p.last(), Some(2));
        assert_eq!(p.depth(), 3);
        assert_eq!(Path::root().parent(), None);
        assert_eq!(Path::root().child(4).to_string(), "4");
    }

    #[test]
    fn common_prefix_is_lca_location() {
        let a: Path = "0/1/0".parse().unwrap();
        let b: Path = "0/1/3/2".parse().unwrap();
        let c: Path = "2/0".parse().unwrap();
        assert_eq!(a.common_prefix(&b).to_string(), "0/1");
        assert_eq!(a.common_prefix(&c), Path::root());
        assert_eq!(a.common_prefix(&a), a);
    }

    #[test]
    fn deep_paths_spill_to_the_heap_and_stay_equal_to_inline_construction() {
        // Grow one step past the inline capacity and back: every operation must behave
        // identically to a from-scratch path with the same steps, whatever representation
        // each side happens to be in.
        let steps: Vec<usize> = (0..INLINE_STEPS + 3).collect();
        let mut grown = Path::root();
        for &s in &steps {
            grown.push(s);
        }
        let built = Path::from_steps(steps.iter().copied());
        assert_eq!(grown, built);
        assert_eq!(grown.depth(), INLINE_STEPS + 3);
        assert_eq!(grown.steps(), &steps[..]);
        // Pop back under the inline limit: the (now heap) path must still compare, hash
        // and order like an inline path with the same steps.
        for _ in 0..4 {
            grown.pop();
        }
        let inline = Path::from_steps((0..INLINE_STEPS - 1) as std::ops::Range<usize>);
        assert_eq!(grown, inline);
        assert_eq!(grown.cmp(&inline), std::cmp::Ordering::Equal);
        let hash = |p: &Path| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&grown), hash(&inline));
        assert_eq!(grown.to_string(), inline.to_string());
        // Deep paths round-trip through text and navigation too.
        let deep: Path = "0/1/2/3/4/5/6/7/8/9/10".parse().unwrap();
        assert_eq!(deep.depth(), 11);
        assert_eq!(deep.to_string(), "0/1/2/3/4/5/6/7/8/9/10");
        assert_eq!(deep.parent().unwrap().depth(), 10);
        assert_eq!(deep.child(11).last(), Some(11));
        assert!(deep.parent().unwrap().is_strict_prefix_of(&deep));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: Path = "0/1".parse().unwrap();
        let b: Path = "0/1/0".parse().unwrap();
        let c: Path = "1".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }
}
