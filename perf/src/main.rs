fn main() -> std::process::ExitCode {
    perf::cli::main(std::env::args().skip(1).collect())
}
