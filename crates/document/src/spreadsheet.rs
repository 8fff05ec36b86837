//! A rectangular spreadsheet model, standing in for the Excel sources the
//! paper's application wrappers monitored.
//!
//! For "a relatively structured source such as an Excel spreadsheet, the
//! generalization process is normally quite simple" (§3.1): two cells copied
//! from a column generalize to the whole column. The structure learner's
//! spreadsheet path is exercised through this type.

use std::fmt;

/// Zero-based cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellAddr {
    /// Row index (0-based; row 0 may be a header).
    pub row: usize,
    /// Column index (0-based).
    pub col: usize,
}

impl CellAddr {
    /// Construct an address.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }

    /// Spreadsheet-style name like `B3` (column letters, 1-based row).
    pub fn name(&self) -> String {
        let mut col = self.col;
        let mut letters = String::new();
        loop {
            letters.insert(0, (b'A' + (col % 26) as u8) as char);
            if col < 26 {
                break;
            }
            col = col / 26 - 1;
        }
        format!("{}{}", letters, self.row + 1)
    }
}

/// An inclusive rectangular range of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SheetRange {
    /// Top-left corner.
    pub start: CellAddr,
    /// Bottom-right corner (inclusive).
    pub end: CellAddr,
}

impl SheetRange {
    /// Construct, normalizing so `start` is the top-left corner.
    pub fn new(a: CellAddr, b: CellAddr) -> Self {
        Self {
            start: CellAddr::new(a.row.min(b.row), a.col.min(b.col)),
            end: CellAddr::new(a.row.max(b.row), a.col.max(b.col)),
        }
    }

    /// A single-cell range.
    pub fn cell(addr: CellAddr) -> Self {
        Self { start: addr, end: addr }
    }

    /// Number of rows covered.
    pub fn row_count(&self) -> usize {
        self.end.row - self.start.row + 1
    }

    /// Number of columns covered.
    pub fn col_count(&self) -> usize {
        self.end.col - self.start.col + 1
    }

    /// Whether the range contains an address.
    pub fn contains(&self, a: CellAddr) -> bool {
        (self.start.row..=self.end.row).contains(&a.row)
            && (self.start.col..=self.end.col).contains(&a.col)
    }

    /// Iterate addresses row-major.
    pub fn iter(&self) -> impl Iterator<Item = CellAddr> + '_ {
        let (r0, r1, c0, c1) = (self.start.row, self.end.row, self.start.col, self.end.col);
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| CellAddr::new(r, c)))
    }
}

/// A named sheet of string cells. Ragged input rows are padded with empty
/// strings so the sheet is always rectangular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sheet {
    name: String,
    header: Option<Vec<String>>,
    rows: Vec<Vec<String>>,
    width: usize,
}

impl Sheet {
    /// Build a sheet from data rows, optionally with a header row.
    pub fn new(
        name: impl Into<String>,
        header: Option<Vec<String>>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        let width = rows
            .iter()
            .map(Vec::len)
            .chain(header.iter().map(Vec::len))
            .max()
            .unwrap_or(0);
        let pad = |mut r: Vec<String>| {
            r.resize(width, String::new());
            r
        };
        Self {
            name: name.into(),
            header: header.map(pad),
            rows: rows.into_iter().map(pad).collect(),
            width,
        }
    }

    /// The sheet's name (shown as a tab label in CopyCat's workspace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Header labels, if present.
    pub fn header(&self) -> Option<&[String]> {
        self.header.as_deref()
    }

    /// Number of data rows (header excluded).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn col_count(&self) -> usize {
        self.width
    }

    /// Borrow one data row.
    pub fn row(&self, r: usize) -> Option<&[String]> {
        self.rows.get(r).map(Vec::as_slice)
    }

    /// All data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Cell value at a data-row address (`None` out of bounds).
    pub fn cell(&self, a: CellAddr) -> Option<&str> {
        self.rows.get(a.row)?.get(a.col).map(String::as_str)
    }

    /// One column's values, top to bottom.
    pub fn column(&self, c: usize) -> Vec<&str> {
        self.rows
            .iter()
            .filter_map(|r| r.get(c).map(String::as_str))
            .collect()
    }

    /// Find the first cell whose value equals `needle` exactly.
    pub fn find(&self, needle: &str) -> Option<CellAddr> {
        for (r, row) in self.rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if v == needle {
                    return Some(CellAddr::new(r, c));
                }
            }
        }
        None
    }

    /// Parse CSV with quoting support. `has_header` promotes the first
    /// record to the header row.
    pub fn from_csv(name: impl Into<String>, csv: &str, has_header: bool) -> Self {
        let mut records = parse_csv(csv);
        let header = if has_header && !records.is_empty() {
            Some(records.remove(0))
        } else {
            None
        };
        Sheet::new(name, header, records)
    }

    /// Serialize to CSV (RFC-4180 quoting; header first when present).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        if let Some(h) = &self.header {
            write_row(&mut out, h);
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl fmt::Display for Sheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sheet '{}' ({} rows x {} cols)",
            self.name,
            self.rows.len(),
            self.width
        )
    }
}

/// Minimal RFC-4180 CSV reader: quoted fields, doubled quotes, CRLF/LF.
fn parse_csv(input: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' if field.is_empty() => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_with_quoting() {
        let csv = "name,addr\n\"Smith, J\",\"12 \"\"A\"\" St\"\nJones,5 Oak\n";
        let sheet = Sheet::from_csv("contacts", csv, true);
        assert_eq!(sheet.header().unwrap(), &["name", "addr"]);
        assert_eq!(sheet.cell(CellAddr::new(0, 0)), Some("Smith, J"));
        assert_eq!(sheet.cell(CellAddr::new(0, 1)), Some("12 \"A\" St"));
        assert_eq!(Sheet::from_csv("contacts", &sheet.to_csv(), true), sheet);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let s = Sheet::new("s", None, vec![vec!["a".into()], vec!["b".into(), "c".into()]]);
        assert_eq!(s.col_count(), 2);
        assert_eq!(s.cell(CellAddr::new(0, 1)), Some(""));
    }

    #[test]
    fn cell_names() {
        assert_eq!(CellAddr::new(0, 0).name(), "A1");
        assert_eq!(CellAddr::new(2, 1).name(), "B3");
        assert_eq!(CellAddr::new(0, 26).name(), "AA1");
    }

    #[test]
    fn range_iterates_every_cell() {
        let r = SheetRange::new(CellAddr::new(0, 0), CellAddr::new(1, 1));
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    fn find_and_column() {
        let s = Sheet::from_csv("s", "x,y\n1,2\n3,4\n", true);
        assert_eq!(s.find("3"), Some(CellAddr::new(1, 0)));
        assert_eq!(s.column(1), vec!["2", "4"]);
    }
}
