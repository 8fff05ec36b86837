//! Document substrate for CopyCat (CIDR 2009 "Smart Copy & Paste").
//!
//! The paper's prototype monitored copy operations from real applications
//! (Internet Explorer, Word, Excel) via OS-level *application wrappers*.
//! This crate is the substitute substrate: an explicit document model that
//! carries exactly the information the paper says the learners need —
//! the copied strings plus "access to the source from which the data was
//! selected" (§3.1).
//!
//! It provides:
//!
//! * [`html`] — a lenient HTML tokenizer, DOM arena, parser and tag-path
//!   addressing, rich enough for the wrapper-induction experts in
//!   `copycat-extract` to operate on realistic page structure;
//! * [`spreadsheet`] — a rectangular sheet model with CSV round-tripping,
//!   standing in for Excel sources;
//! * [`text`] — plain-text documents with line addressing and search;
//! * [`site`] — multi-page Web sites: pages keyed by URL, links, and forms
//!   with input bindings (the "hierarchical Web sites" of §2.2);
//! * [`clipboard`] — the registry of source documents a paste refers to
//!   by handle;
//! * [`corpus`] — seeded synthetic corpus generators (shelter lists, noisy
//!   templates, paginated sites, contact sheets) used by the experiments.

pub mod clipboard;
pub mod corpus;
pub mod html;
pub mod site;
pub mod spreadsheet;
pub mod text;

pub use clipboard::{Clipboard, Document, DocumentId};
pub use html::{HtmlDocument, NodeId, NodeKind, TagPath, TagStep};
pub use site::{Form, Page, Url, Website};
pub use spreadsheet::{CellAddr, Sheet, SheetRange};
pub use text::TextDocument;
