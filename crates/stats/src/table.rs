//! Text rendering for the `repro` binary: aligned Markdown-ish tables,
//! ASCII boxplots (the paper's dominant figure type), and ASCII ECDF
//! plots.

use std::fmt::{Display, Write as _};

use crate::desc::Summary;
use crate::fixed::Fixed;

/// A simple table builder producing aligned Markdown output.
///
/// Every cell's text lives in one `String`, headers first and then the
/// rows in order, with each cell's end offset beside it.
#[derive(Debug, Clone, Default)]
pub struct Table {
    text: String,
    ends: Vec<usize>,
    ncol: usize,
    rows: usize,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator>(headers: I) -> Table
    where
        I::Item: Display,
    {
        let mut table = Table::default();
        table.ncol = table.push_cells(headers);
        table
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<I: IntoIterator>(&mut self, cells: I) -> &mut Table
    where
        I::Item: Display,
    {
        let (text, ends) = (self.text.len(), self.ends.len());
        let width = self.push_cells(cells);
        if width != self.ncol {
            self.text.truncate(text);
            self.ends.truncate(ends);
            panic!("row width {width} != header width {}", self.ncol);
        }
        self.rows += 1;
        self
    }

    /// Writes cells after the last one, and returns how many there were.
    fn push_cells<I: IntoIterator>(&mut self, cells: I) -> usize
    where
        I::Item: Display,
    {
        let before = self.ends.len();
        for cell in cells {
            write!(self.text, "{cell}").expect("writing to a String cannot fail");
            self.ends.push(self.text.len());
        }
        self.ends.len() - before
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no data rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Renders an aligned Markdown table.
    pub fn render(&self) -> String {
        // Widths count characters; in ASCII text those are bytes.
        let ascii = self.text.is_ascii();
        let mut start = 0;
        let chars: Vec<usize> = self
            .ends
            .iter()
            .map(|&end| {
                let cell = &self.text[start..end];
                start = end;
                if ascii {
                    cell.len()
                } else {
                    cell.chars().count()
                }
            })
            .collect();
        let mut width = vec![0usize; self.ncol];
        for row in chars.chunks(self.ncol.max(1)) {
            for (w, &n) in width.iter_mut().zip(row) {
                *w = (*w).max(n);
            }
        }
        // Every line holds `2 + Σ(w + 3)` characters; a multi-byte
        // character adds its extra bytes once. The lines are laid out in
        // a buffer of spaces, so only the cells and rules are copied in.
        let line = 2 + width.iter().map(|w| w + 3).sum::<usize>();
        let lines = self.rows + 2;
        let extra = self.text.len() - chars.iter().sum::<usize>();
        let mut out = vec![b' '; lines * line + extra];
        let text = self.text.as_bytes();
        let mut cells = self.ends.iter().zip(&chars);
        let (mut at, mut start) = (0, 0);
        for l in 0..lines {
            out[at] = b'|';
            at += 1;
            for &w in &width {
                if l == 1 {
                    out[at..at + w + 2].fill(b'-');
                    at += w + 2;
                } else {
                    let (&end, &n) = cells
                        .next()
                        .expect("every line but the rule has ncol cells");
                    let cell = &text[start..end];
                    out[at + 1..at + 1 + cell.len()].copy_from_slice(cell);
                    // A space, the cell, and spaces to the column's width.
                    at += cell.len() + w - n + 2;
                    start = end;
                }
                out[at] = b'|';
                at += 1;
            }
            out[at] = b'\n';
            at += 1;
        }
        String::from_utf8(out).expect("whole cells of UTF-8 between ASCII")
    }
}

/// Renders labeled boxplots as horizontal ASCII bars: `|` marks the
/// minimum and maximum, `-` the whiskers between them, `=` the box from
/// q1 to q3, and `#` the median. Optionally on a log scale (the paper's
/// Figures 4, 5, 7, 10b, 12 use log axes).
pub fn ascii_boxplots(entries: &[(String, Summary)], width: usize, log_scale: bool) -> String {
    if entries.is_empty() {
        return String::new();
    }
    let xform = |v: f64| -> f64 {
        if log_scale {
            v.max(1e-3).log10()
        } else {
            v
        }
    };
    let lo = entries
        .iter()
        .map(|(_, s)| xform(s.min))
        .fold(f64::INFINITY, f64::min);
    let hi = entries
        .iter()
        .map(|(_, s)| xform(s.max))
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let label_w = entries
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap();
    let plot_w = width.saturating_sub(label_w + 2).max(20);
    let col =
        |v: f64| -> usize { (((xform(v) - lo) / span) * (plot_w - 1) as f64).round() as usize };

    let mut out = String::with_capacity((entries.len() + 1) * (label_w + plot_w + 40));
    let mut line = vec![b' '; plot_w];
    for (label, s) in entries {
        line.fill(b' ');
        let (cmin, cq1, cmed, cq3, cmax) =
            (col(s.min), col(s.q1), col(s.median), col(s.q3), col(s.max));
        for c in line.iter_mut().take(cmax + 1).skip(cmin) {
            *c = b'-';
        }
        for c in line.iter_mut().take(cq3 + 1).skip(cq1) {
            *c = b'=';
        }
        line[cmin] = b'|';
        line[cmax] = b'|';
        line[cmed] = b'#';
        let bar = std::str::from_utf8(&line).expect("the plot glyphs are ASCII");
        writeln!(
            out,
            "{label:label_w$}  {bar}  (med {}, mean {})",
            Fixed(s.median, 2),
            Fixed(s.mean, 2)
        )
        .expect("writing to a String cannot fail");
    }
    let scale = if log_scale { "log10" } else { "linear" };
    let (lo, hi) = if log_scale {
        (10f64.powf(lo), 10f64.powf(hi))
    } else {
        (lo, hi)
    };
    writeln!(
        out,
        "{:label_w$}  [{scale} scale: {} .. {}]",
        "",
        Fixed(lo, 3),
        Fixed(hi, 3)
    )
    .expect("writing to a String cannot fail");
    out
}

/// Renders one or more ECDF series as an ASCII grid; each series is drawn
/// with its own glyph.
pub fn ascii_ecdf(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    if series.is_empty() || series.iter().all(|(_, pts)| pts.is_empty()) {
        return String::new();
    }
    const GLYPHS: [u8; 8] = *b"*o+x@%&~";
    let lo = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let mut grid = vec![b' '; width * height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in pts {
            let cx = (((x - lo) / span) * (width - 1) as f64).round() as usize;
            let cy = ((1.0 - y) * (height - 1) as f64).round() as usize;
            grid[cy.min(height - 1) * width + cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::with_capacity((height + 2) * (width + 8) + 16 * series.len());
    for (ri, row) in grid.chunks(width).enumerate() {
        let yval = 1.0 - ri as f64 / (height - 1) as f64;
        let row = std::str::from_utf8(row).expect("the plot glyphs are ASCII");
        writeln!(out, "{:4} |{row}", Fixed(yval, 2)).expect("writing to a String cannot fail");
    }
    out.push_str("     +");
    out.extend(std::iter::repeat_n('-', width));
    write!(out, "\n      x: {} .. {}   ", Fixed(lo, 2), Fixed(hi, 2))
        .expect("writing to a String cannot fail");
    for (si, (name, _)) in series.iter().enumerate() {
        write!(out, "[{}] {name}  ", char::from(GLYPHS[si % GLYPHS.len()]))
            .expect("writing to a String cannot fail");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(["PT", "median (s)"]);
        t.row(["obfs4", "2.40"]);
        t.row(["marionette", "20.80"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("PT"));
        assert!(lines[1].starts_with("|--"));
        // All lines equal length (alignment).
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    /// The row-of-`String`s table this one replaced, as the oracle.
    fn reference_render(headers: &[String], rows: &[Vec<String>]) -> String {
        let ncol = headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i] - c.chars().count();
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s.push('\n');
            s
        };
        let mut out = fmt_row(headers);
        let mut sep = String::from("|");
        for w in &width {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Xorshift64: a deterministic index below `bound`.
    fn below(state: &mut u64, bound: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % bound as u64) as usize
    }

    /// A cell of up to three pieces, ASCII and multi-byte.
    fn cell(state: &mut u64) -> String {
        const PIECES: [&str; 8] = ["a", "obfs4", "—", "µs", "12.345", "", " ", "Tor-Webtunnel"];
        (0..below(state, 4))
            .map(|_| PIECES[below(state, PIECES.len())])
            .collect()
    }

    #[test]
    fn table_renders_like_the_row_of_strings_table() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..300 {
            let ncol = below(&mut state, 7);
            let headers: Vec<String> = (0..ncol).map(|_| cell(&mut state)).collect();
            let rows: Vec<Vec<String>> = (0..below(&mut state, 6))
                .map(|_| (0..ncol).map(|_| cell(&mut state)).collect())
                .collect();
            let mut table = Table::new(&headers);
            for row in &rows {
                table.row(row);
            }
            assert_eq!(table.len(), rows.len());
            let text = table.render();
            assert_eq!(
                text,
                reference_render(&headers, &rows),
                "{headers:?} {rows:?}"
            );
            assert_eq!(text.len(), text.capacity(), "the render is sized exactly");
        }
    }

    #[test]
    fn a_rejected_row_leaves_the_table_as_it_was() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        let before = t.render();
        let ragged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(["3", "4", "5"]);
        }));
        assert!(ragged.is_err());
        assert_eq!(t.len(), 1);
        assert_eq!(t.render(), before);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn boxplot_renders_every_entry() {
        let entries = vec![
            ("tor".to_string(), Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0])),
            ("obfs4".to_string(), Summary::of(&[2.0, 3.0, 4.0, 6.0, 9.0])),
        ];
        let s = ascii_boxplots(&entries, 80, false);
        assert!(s.contains("tor"));
        assert!(s.contains("obfs4"));
        assert!(s.contains('#'), "median marker missing:\n{s}");
    }

    #[test]
    fn boxplot_log_scale_compresses() {
        let entries = vec![(
            "wide".to_string(),
            Summary::of(&[0.1, 1.0, 10.0, 100.0, 1000.0]),
        )];
        let s = ascii_boxplots(&entries, 70, true);
        assert!(s.contains("log10"));
    }

    #[test]
    fn ecdf_plot_has_axes_and_legend() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, i as f64 / 10.0)).collect();
        let s = ascii_ecdf(&[("meek".to_string(), pts)], 40, 10);
        assert!(s.contains("meek"));
        assert!(s.contains("1.00"));
        assert!(s.contains('*'));
    }

    #[test]
    fn empty_inputs_render_empty() {
        assert_eq!(ascii_boxplots(&[], 80, false), "");
        assert_eq!(ascii_ecdf(&[], 40, 10), "");
    }
}
