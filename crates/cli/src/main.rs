//! `ptaint-run` — compile a mini-C (or assembly) guest program and execute
//! it on the pointer-taintedness detection architecture. `--help` prints
//! the option reference, `ptaint_cli::USAGE`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", ptaint_cli::USAGE);
        return ExitCode::SUCCESS;
    }
    let opts = match ptaint_cli::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ptaint-run: {e}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ptaint-run: cannot read `{}`: {e}", opts.program);
            return ExitCode::from(2);
        }
    };
    let machine = match ptaint_cli::build_machine(&opts, &source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ptaint-run: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, code) = ptaint_cli::run_machine(&opts, &machine);
    print!("{report}");
    ExitCode::from(u8::try_from(code.rem_euclid(256)).unwrap_or(1))
}
