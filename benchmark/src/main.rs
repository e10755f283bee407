fn main() {
    // Taken first: `setup_s` is charged from process start.
    let process_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(pp_benchmark::cli::main(&args, process_start));
}
