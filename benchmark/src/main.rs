//! See the library's crate documentation.

fn main() -> std::process::ExitCode {
    oram_benchmark::main()
}
