//! The paper's evaluation — every table and figure, eight ablations, four
//! extensions: `cargo bench --bench paper` runs them all and writes
//! `BENCH_paper.json`, `cargo bench --bench paper -- <name>...` the named
//! ones. The table and its interpreter are `string_oram_bench::paper`.

fn main() -> std::process::ExitCode {
    string_oram_bench::paper::main()
}
