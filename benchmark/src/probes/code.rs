//! The ROADMAP's lines-per-crate metric.

use std::path::Path;

use super::Probed;
use crate::spec::LOC_CRATES;
use crate::stats::Metric;

/// Non-blank, non-comment lines of one source file, up to its first
/// `#[cfg(test)]`.
pub fn count_lines(text: &str) -> u64 {
    text.lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

/// Lines of every `.rs` file under `dir`, files named `tests.rs` left
/// out. A directory that cannot be read counts nothing.
fn count_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                count_dir(&p)
            } else if p.extension().is_some_and(|x| x == "rs")
                && p.file_name().is_some_and(|n| n != "tests.rs")
            {
                std::fs::read_to_string(&p).map_or(0, |t| count_lines(&t))
            } else {
                0
            }
        })
        .sum()
}

pub fn run(out: &mut Probed) {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    for c in LOC_CRATES {
        out.metrics.push(Metric::single(
            format!("code.loc.{c}"),
            "lines",
            count_dir(&crates.join(c).join("src")) as f64,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_before_the_tests() {
        let src =
            "//! doc\n\nuse x;\n  // note\nfn f() {\n}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n";
        assert_eq!(count_lines(src), 3);
    }
}
