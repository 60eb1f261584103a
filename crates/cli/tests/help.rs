//! `ptaint-run --help` prints an aligned option reference that names every
//! flag `parse_args` accepts.

use std::collections::BTreeSet;
use std::process::Command;

use ptaint_cli::parse_args;

/// An existing host file for the flags that read one at parse time.
const HOST_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");

/// One sample command line per accepted flag, with the subcommand or
/// companion flag it needs; `@` stands for [`HOST_FILE`]. The flag a
/// sample covers is its last `-`-prefixed token.
const SAMPLES: &[&str] = &[
    "p.c --asm",
    "p.c --optimize",
    "p.c --policy off",
    "p.c --engine interp",
    "p.c --elide-checks",
    "p.c -j 2",
    "p.c --jobs 2",
    "p.c --stdin @",
    "p.c --stdin-text x",
    "p.c --arg x",
    "p.c --env K=V",
    "p.c --file /etc/x=@",
    "p.c --session @",
    "p.c --watch secret:4",
    "p.c --caches",
    "p.c --pipeline",
    "p.c --steps 10",
    "p.c --watchdog-ms 10",
    "inject p.c --seed 3",
    "inject p.c --trials 3",
    "inject p.c --faults data_bit",
    "inject p.c --report r.json",
    "p.c --journal-out j.txt",
    "replay p.c --journal j.txt",
    "p.c --trace-out t.jsonl",
    "p.c --metrics-out m.json",
    "p.c --trace-out t.jsonl --metrics-interval 5",
    "p.c --profile-out p.json",
    "p.c --provenance",
    "p.c --trace",
    "p.c --trace-depth 3",
    "p.c --disasm",
    "p.c --quiet",
];

fn help() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ptaint-run"))
        .arg("--help")
        .output()
        .expect("ptaint-run starts");
    assert!(out.status.success());
    String::from_utf8(out.stdout).expect("help is UTF-8")
}

/// Column where every entry's description starts.
const DESC_COL: usize = 21;

/// Whether `line` starts an entry: a flag or a subcommand name.
fn is_entry(line: &str) -> bool {
    line.starts_with('-')
        || ["analyze ", "inject ", "profile ", "replay "]
            .iter()
            .any(|name| line.starts_with(name))
}

/// The flags an entry line lists before its description column.
fn entry_flags(line: &str) -> impl Iterator<Item = &str> {
    line[..DESC_COL.min(line.len())]
        .split([' ', ',', '/'])
        .filter(|token| token.starts_with('-'))
}

#[test]
fn wrapped_descriptions_are_indented_to_the_description_column() {
    let help = help();
    // Sections are separated by blank lines; the subcommand and option
    // sections are the ones that open with an entry.
    for section in help.split("\n\n").filter(|s| is_entry(s)) {
        for line in section.lines() {
            if is_entry(line) {
                assert!(line.len() > DESC_COL, "entry without description: {line:?}");
                let (term, desc) = line.split_at(DESC_COL);
                assert!(
                    term.ends_with(' ') && !desc.starts_with(' '),
                    "entry description not at column {DESC_COL}: {line:?}"
                );
            } else {
                let indent = line.len() - line.trim_start().len();
                assert_eq!(indent, DESC_COL, "misaligned wrapped line: {line:?}");
            }
        }
    }
    assert_eq!(
        Command::new(env!("CARGO_BIN_EXE_ptaint-run"))
            .arg("-h")
            .output()
            .expect("ptaint-run starts")
            .stdout,
        help.as_bytes(),
        "-h prints the same help"
    );
}

/// Every flag literal in `parse_args`' match arms.
fn flags_in_parse_args() -> BTreeSet<&'static str> {
    let src = include_str!("../src/lib.rs");
    let body = &src[src.find("pub fn parse_args").expect("parse_args exists")..];
    let body = &body[..body.find("\n}\n").expect("parse_args ends")];
    body.lines()
        .filter_map(|line| line.split_once("=>"))
        .flat_map(|(pattern, _)| pattern.split('|'))
        .map(str::trim)
        .filter_map(|alt| alt.strip_prefix('"')?.strip_suffix('"'))
        .filter(|lit| lit.starts_with('-'))
        .collect()
}

#[test]
fn every_accepted_flag_is_listed_in_the_help() {
    let help = help();
    let listed: BTreeSet<&str> = help
        .lines()
        .filter(|line| is_entry(line))
        .flat_map(entry_flags)
        .collect();
    let mut sampled = BTreeSet::new();
    for sample in SAMPLES {
        let args: Vec<String> = sample
            .split(' ')
            .map(|token| token.replace('@', HOST_FILE))
            .collect();
        let flag = sample
            .split(' ')
            .rfind(|token| token.starts_with('-'))
            .expect("a sample names a flag");
        if let Err(e) = parse_args(&args) {
            panic!("sample `{sample}` does not parse: {e}");
        }
        assert!(listed.contains(flag), "`{flag}` is missing from --help");
        sampled.insert(flag);
    }
    let accepted = flags_in_parse_args();
    assert!(
        accepted.len() > 20,
        "scan found the flag arms: {accepted:?}"
    );
    let unsampled: Vec<_> = accepted.difference(&sampled).collect();
    assert!(unsampled.is_empty(), "flags with no sample: {unsampled:?}");
}
