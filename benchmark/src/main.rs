fn main() -> std::process::ExitCode {
    lasmq_benchmark::cli::main()
}
