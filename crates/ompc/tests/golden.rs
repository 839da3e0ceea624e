//! Bit-identity against the tree-walking interpreter this crate used to
//! ship: `golden/corpus_1x1.txt` holds the full [`ompc::ProgramOutput`]
//! of every `examples/omp/*.omp` and `examples/omp/clean/*.omp` program
//! on a 1×1 `fast_test` cluster, captured from the last commit that
//! walked the IR, with every `f64` written as its bit pattern. Whatever
//! executes the lowered IR today must reproduce it exactly.

use nomp::{Cluster, OmpConfig};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/corpus_1x1.txt");

fn corpus_dir() -> String {
    format!("{}/../../examples/omp", env!("CARGO_MANIFEST_DIR"))
}

/// `*.omp` directly under `examples/omp/<sub>`, sorted.
fn omp_files(sub: &str) -> Vec<String> {
    let dir = format!("{}/{sub}", corpus_dir());
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir}: {e}"))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".omp"))
        .map(|n| format!("{sub}{n}"))
        .collect();
    names.sort();
    names
}

/// One program's output, one value per token, floats as hex bit patterns.
fn render(rel: &str, out: &mut String) {
    let path = format!("{}/{rel}", corpus_dir());
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let prog = ompc::compile(&src).unwrap_or_else(|d| panic!("{rel}: {d}"));
    let res = Cluster::from_config(OmpConfig::fast_test(1))
        .run(&prog)
        .expect("a fresh cluster accepts a job")
        .result;
    writeln!(out, "== {rel}").unwrap();
    writeln!(out, "ret {:016x}", res.ret.to_bits()).unwrap();
    for line in &res.printed {
        // `pi.omp` prints measured virtual time (host CPU × a constant):
        // the one value in the corpus that is not a function of the source.
        match line.split_once("virtual seconds = ") {
            Some((head, _)) => writeln!(out, "printed {head:?} <measured>").unwrap(),
            None => writeln!(out, "printed {line:?}").unwrap(),
        }
    }
    for (name, v) in &res.scalars {
        writeln!(out, "scalar {name} {:016x}", v.to_bits()).unwrap();
    }
    for (name, vals) in &res.arrays {
        writeln!(out, "array {name} {}", vals.len()).unwrap();
        for row in vals.chunks(4) {
            let row: Vec<String> = row
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            writeln!(out, "  {}", row.join(" ")).unwrap();
        }
    }
}

#[test]
fn corpus_outputs_are_bit_identical_to_the_tree_walk() {
    let mut actual = String::new();
    for rel in omp_files("").into_iter().chain(omp_files("clean/")) {
        render(&rel, &mut actual);
    }
    if actual != GOLDEN {
        let dump = format!("{}/corpus_1x1.actual.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&dump, &actual).expect("write the mismatch dump");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "output differs from tests/golden/corpus_1x1.txt at line {}; full output in {dump}",
            line + 1
        );
    }
}
