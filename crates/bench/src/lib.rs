//! Support for the figure/table binaries: a tiny CLI-argument helper and
//! shared formatting, so every exhibit binary has the same interface:
//!
//! ```text
//! cargo run --release -p flashcache-bench --bin fig4 -- [--scale N] [--paper] [--seed S]
//! ```
//!
//! `--paper` runs at the paper's full sizes; the default scale keeps each
//! binary in the seconds-to-a-couple-of-minutes range.
//!
//! The binaries print exhibits, not telemetry: their caches live inside
//! `flashcache_sim::experiments`, and one sweep mixes every configuration
//! it ran. A metrics snapshot of one system comes from
//! `flashcache simulate --json-metrics FILE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod svg;

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Divisor applied to capacities/footprints (1 = paper scale).
    pub scale: u64,
    /// RNG seed announced and used by the experiment.
    pub seed: u64,
    /// Directory to save machine-readable `.dat` files into (`--out`).
    pub out_dir: Option<std::path::PathBuf>,
    /// Worker threads for sweep fan-out (`--threads N`, default = the
    /// machine's available parallelism).
    pub threads: usize,
}

impl RunArgs {
    /// Parses `--scale N`, `--paper` (scale 1), `--seed S`, `--out DIR`
    /// and `--threads N` from `std::env::args`, with `default_scale` when
    /// none is given.
    ///
    /// An unknown or malformed argument prints the usage line and exits
    /// with status 2 — a mistyped `--scale` must not silently run the
    /// default experiment.
    pub fn parse(default_scale: u64) -> RunArgs {
        let mut scale = default_scale;
        let mut seed = 0x1507_2008u64;
        let mut out_dir = None;
        let mut threads = parallel::default_threads();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => scale = 1,
                "--scale" => {
                    i += 1;
                    scale = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a positive integer"));
                }
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                }
                "--out" => {
                    i += 1;
                    out_dir = Some(std::path::PathBuf::from(
                        args.get(i)
                            .unwrap_or_else(|| die("--out needs a directory")),
                    ));
                }
                "--threads" => {
                    i += 1;
                    threads = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| die("--threads needs a positive integer"));
                }
                "--bench" | "--quiet" => {} // passed through by `cargo bench`
                other => die(&format!("unknown argument `{other}`")),
            }
            i += 1;
        }
        if scale == 0 {
            die::<u64>("--scale must be at least 1");
        }
        RunArgs {
            scale,
            seed,
            out_dir,
            threads,
        }
    }

    /// Prints the exhibit and, when `--out` was given, saves it as a
    /// `.dat` file, reporting the path.
    pub fn emit(&self, exhibit: &Exhibit) {
        exhibit.print();
        if let Some(dir) = &self.out_dir {
            match exhibit.save_dat(dir) {
                Ok(path) => println!("[saved {}]", path.display()),
                Err(e) => eprintln!("could not save {}: {e}", exhibit.name()),
            }
        }
        println!();
    }

    /// Prints the standard experiment header.
    pub fn announce(&self, exhibit: &str, description: &str) {
        println!("=== {exhibit}: {description} ===");
        println!(
            "scale: 1/{} of paper size{} | seed: {:#x}",
            self.scale,
            if self.scale == 1 {
                " (paper scale)"
            } else {
                ""
            },
            self.seed
        );
        println!();
    }
}

const USAGE: &str = "usage: [--scale N | --paper] [--seed S] [--out DIR] [--threads N]";

fn die<T>(msg: &str) -> T {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Formats a byte count as MB with the binary convention used in the
/// paper's figures.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{}MB", bytes / (1 << 20))
}

/// A printable, exportable data table: one per figure/table series.
#[derive(Debug, Clone)]
pub struct Exhibit {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Exhibit {
    /// Creates an exhibit with the given snake_case name and columns.
    pub fn new(name: &str, columns: &[&str]) -> Exhibit {
        Exhibit {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The exhibit name (used as the `.dat` file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "{}: row width mismatch",
            self.name
        );
        self.rows.push(row);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!("{cell:>width$}  ", width = w));
            }
            println!("{}", out.trim_end());
        };
        line(&self.columns);
        for row in &self.rows {
            line(row);
        }
    }

    /// Saves as a gnuplot-friendly `.dat`: `#`-prefixed header then
    /// tab-separated rows. Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, write).
    pub fn save_dat(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.dat", self.name));
        let mut text = format!("# {}\n", self.columns.join("\t"));
        for row in &self.rows {
            text.push_str(&row.join("\t"));
            text.push('\n');
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_roundtrip() {
        let mut e = Exhibit::new("test_series", &["x", "y"]);
        e.row(["1".to_string(), "2.5".to_string()]);
        e.row(["2".to_string(), "5.0".to_string()]);
        let dir = std::env::temp_dir().join("flashcache_exhibit_test");
        let path = e.save_dat(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# x\ty"));
        assert!(text.contains("1\t2.5"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn exhibit_rejects_ragged_rows() {
        let mut e = Exhibit::new("bad", &["a", "b"]);
        e.row(["only-one".to_string()]);
    }
}
