//! The documents a user can copy from, and the registry that hands
//! out their handles.
//!
//! The paper's application wrappers detect "copy and paste operations —
//! between source applications and the SCP workspace", and feed the learners
//! both the copied data and "context information like the document being
//! displayed in the source application" (§2.2). A paste into the engine
//! (`CopyCat::paste_example(doc, values)`) carries precisely that: the
//! copied values and the [`DocumentId`] of a document registered here.

use crate::site::Website;
use crate::spreadsheet::Sheet;
use crate::text::TextDocument;

/// Handle to a document registered with a [`Clipboard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocumentId(pub u32);

/// A source document a user can copy from.
#[derive(Debug, Clone)]
pub enum Document {
    /// A (possibly multi-page) Web site displayed in the browser.
    Site(Website),
    /// A spreadsheet.
    Sheet(Sheet),
    /// A plain-text document.
    Text(TextDocument),
}

impl Document {
    /// Human-readable name for workspace tab labels.
    pub fn name(&self) -> String {
        match self {
            Document::Site(site) => site
                .entry()
                .map(|p| p.url.to_string())
                .unwrap_or_else(|| "(empty site)".to_string()),
            Document::Sheet(s) => s.name().to_string(),
            Document::Text(t) => t.name().to_string(),
        }
    }
}

/// The monitored clipboard: owns the registered documents pastes refer
/// to.
#[derive(Debug, Default)]
pub struct Clipboard {
    docs: Vec<Document>,
}

impl Clipboard {
    /// An empty clipboard with no registered documents.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a document the user has "opened"; returns its handle.
    pub fn register(&mut self, doc: Document) -> DocumentId {
        let id = DocumentId(self.docs.len() as u32);
        self.docs.push(doc);
        id
    }

    /// Borrow a registered document.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.docs.get(id.0 as usize)
    }
}
