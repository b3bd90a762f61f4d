//! The paper's evaluation — every table and figure, eight ablations, four
//! extensions — and the bench documents beyond it: `cargo bench --bench
//! paper` runs the paper's experiments and writes `BENCH_paper.json`,
//! `cargo bench --bench paper -- <name>...` the named entries (a document
//! entry such as `shard_scaling` writes its `BENCH_<name>.json`). The table
//! and its interpreter are `string_oram_bench::paper`.

fn main() -> std::process::ExitCode {
    string_oram_bench::paper::main()
}
