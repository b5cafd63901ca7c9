//! Result reporting: experiment outputs go to stdout *and*
//! `results/<id>.txt` so EXPERIMENTS.md can reference stable artifacts.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Accumulates an experiment's textual output.
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    title: String,
    body: String,
}

impl Report {
    /// Creates a report for experiment `id` (e.g. `"table2"`).
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            body: String::new(),
        }
    }

    /// Appends one line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.body.push_str(s.as_ref());
        self.body.push('\n');
    }

    /// Appends a formatted key/value row.
    pub fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.body, "{key:<28} {value}");
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.body.push('\n');
    }

    /// The accumulated body.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Prints the report and writes it under `results/`.
    ///
    /// Returns the path written to (the directory is created on demand;
    /// write failures are reported but not fatal).
    pub fn finish(self, scale: &str) -> PathBuf {
        let header = format!("== {} [{}] ==\n", self.title, scale);
        println!("{header}{}", self.body);
        let dir = PathBuf::from("results");
        let path = dir.join(format!("{}_{}.txt", self.id, scale));
        if let Err(e) = fs::create_dir_all(&dir)
            .and_then(|_| fs::write(&path, format!("{header}{}", self.body)))
        {
            eprintln!("[report] could not write {}: {e}", path.display());
        } else {
            eprintln!("[report] wrote {}", path.display());
        }
        path
    }
}

/// Formats a float with 2 decimals, right-aligned to 8 chars.
pub fn f2(v: f64) -> String {
    format!("{v:>8.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_lines() {
        let mut r = Report::new("t", "Test");
        r.line("hello");
        r.kv("key", 42);
        r.blank();
        assert!(r.body().contains("hello"));
        assert!(r.body().contains("key"));
        assert!(r.body().contains("42"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.2345), "    1.23");
    }
}
