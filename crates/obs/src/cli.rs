//! The argument layer every workspace binary shares: `grinch-arena`,
//! `grinch-campaign`, `grinch-ct` and `grinch-report`.
//!
//! Parsing is hand-rolled because the build environment is offline. A
//! command pulls its flags out of the argument vector one at a time
//! ([`take_value`], [`take_num`], [`take_switch`]) and then calls
//! [`reject_leftover`] on whatever remains. Errors are plain strings;
//! [`main`] prints them as `<program>: <message>` and exits 2.
//!
//! Exit codes: `0` success, `1` a gate or check failed (the command
//! returns that code itself), `2` a usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

/// Runs a subcommand-style program.
///
/// `--help`/`-h` anywhere prints `usage` and exits 0; no arguments print
/// `usage` and exit 2. Otherwise the first argument names the command and
/// `dispatch` runs it with the rest. An `Err` from `dispatch` is printed to
/// stderr as `<program>: <message>` with exit code 2.
pub fn main(
    program: &str,
    usage: &str,
    dispatch: impl FnOnce(&str, Vec<String>) -> Result<ExitCode, String>,
) -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        print!("{usage}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    dispatch(&command, args).unwrap_or_else(|message| {
        eprintln!("{program}: {message}");
        ExitCode::from(2)
    })
}

/// Pulls the value following `flag` out of `args`, if the flag is present.
///
/// A missing value, or one that is itself a `--flag`, is an error: the
/// flag would otherwise swallow the next option.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        _ => Err(format!("{flag} needs a value")),
    }
}

/// [`take_value`] parsed with [`parse_num`].
pub fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    take_value(args, flag)?
        .map(|v| parse_num(flag, &v))
        .transpose()
}

/// Removes a value-less `flag` from `args`, reporting whether it was there.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Fails on the first argument no flag or positional claimed.
pub fn reject_leftover(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(unknown) => Err(format!("unexpected argument {unknown:?}")),
        None => Ok(()),
    }
}

/// Parses a flag's value, naming the flag on failure.
pub fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// Writes `contents` to `path`, creating missing parent directories.
pub fn write_file(path: impl AsRef<Path>, contents: &str) -> Result<(), String> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_value_removes_the_flag_and_its_value() {
        let mut a = args(&["--out", "m.json", "x"]);
        assert_eq!(take_value(&mut a, "--out"), Ok(Some("m.json".into())));
        assert_eq!(take_value(&mut a, "--svg"), Ok(None));
        assert_eq!(a, args(&["x"]));
    }

    #[test]
    fn take_value_rejects_a_missing_value() {
        let mut a = args(&["--out"]);
        assert_eq!(
            take_value(&mut a, "--out"),
            Err("--out needs a value".into())
        );
    }

    #[test]
    fn take_value_rejects_a_flag_given_as_its_value() {
        let mut a = args(&["--out", "--check"]);
        assert_eq!(
            take_value(&mut a, "--out"),
            Err("--out needs a value".into())
        );
        assert_eq!(a, args(&["--out", "--check"]), "nothing is consumed");
        // A single dash is a value, not a flag: negative numbers and `-`
        // pass through.
        let mut a = args(&["--seed", "-1"]);
        assert_eq!(take_value(&mut a, "--seed"), Ok(Some("-1".into())));
    }

    #[test]
    fn take_switch_reports_presence_and_absence() {
        let mut a = args(&["--check", "--json"]);
        assert!(take_switch(&mut a, "--check"));
        assert!(!take_switch(&mut a, "--check"), "consumed once");
        assert!(!take_switch(&mut a, "--once"));
        assert_eq!(a, args(&["--json"]));
    }

    #[test]
    fn reject_leftover_names_the_first_unclaimed_argument() {
        assert_eq!(reject_leftover(&[]), Ok(()));
        assert_eq!(
            reject_leftover(&args(&["--frob", "x"])),
            Err("unexpected argument \"--frob\"".into())
        );
    }

    #[test]
    fn parse_num_errors_name_the_flag_and_the_value() {
        assert_eq!(parse_num::<u64>("--jobs", "4"), Ok(4));
        assert_eq!(
            parse_num::<u64>("--jobs", "four"),
            Err("--jobs: invalid value \"four\"".into())
        );
        let mut a = args(&["--trials", "2x"]);
        assert_eq!(
            take_num::<usize>(&mut a, "--trials"),
            Err("--trials: invalid value \"2x\"".into())
        );
        assert_eq!(take_num::<usize>(&mut a, "--trials"), Ok(None));
    }

    #[test]
    fn write_file_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!("grinch-obs-cli-{}", std::process::id()));
        let path = dir.join("a/b/out.txt");
        write_file(&path, "hi").expect("writes");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hi");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
