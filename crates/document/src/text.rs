//! Plain-text documents (the "Word documents" of the paper's application
//! wrappers) with line addressing and substring search.

/// A plain-text document with cheap line lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextDocument {
    name: String,
    body: String,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
}

impl TextDocument {
    /// Build a document from its full text.
    pub fn new(name: impl Into<String>, body: impl Into<String>) -> Self {
        let body = body.into();
        let mut line_starts = vec![0];
        for (i, b) in body.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        Self { name: name.into(), body, line_starts }
    }

    /// Document name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full text.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Number of lines (a trailing newline does not create an extra line).
    pub fn line_count(&self) -> usize {
        if self.body.is_empty() {
            0
        } else if self.body.ends_with('\n') {
            self.line_starts.len() - 1
        } else {
            self.line_starts.len()
        }
    }

    /// Borrow line `i` without its newline.
    pub fn line(&self, i: usize) -> Option<&str> {
        if i >= self.line_count() {
            return None;
        }
        let start = self.line_starts[i];
        let end = self
            .line_starts
            .get(i + 1)
            .map(|&e| e - 1)
            .unwrap_or(self.body.len());
        Some(&self.body[start..end])
    }

    /// Find every byte offset where `needle` occurs.
    pub fn find_all(&self, needle: &str) -> Vec<usize> {
        if needle.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(pos) = self.body[from..].find(needle) {
            out.push(from + pos);
            from += pos + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines() {
        let d = TextDocument::new("t", "one\ntwo\nthree");
        assert_eq!(d.line_count(), 3);
        assert_eq!(d.line(1), Some("two"));
        assert_eq!(d.line(3), None);
    }

    #[test]
    fn trailing_newline() {
        let d = TextDocument::new("t", "a\nb\n");
        assert_eq!(d.line_count(), 2);
        assert_eq!(d.line(1), Some("b"));
    }

    #[test]
    fn search() {
        let d = TextDocument::new("t", "shelter: Coconut Creek HS\nshelter: Pompano Rec");
        assert_eq!(d.find_all("shelter:"), vec![0, 26]);
    }

    #[test]
    fn overlapping_find() {
        let d = TextDocument::new("t", "aaa");
        assert_eq!(d.find_all("aa"), vec![0, 1]);
    }

    #[test]
    fn empty_document() {
        let d = TextDocument::new("t", "");
        assert_eq!(d.line_count(), 0);
        assert_eq!(d.line(0), None);
    }
}
