//! The command line of the `exp_*` binaries, read once.
//!
//! Each binary names the flags it acts on, as one space-separated
//! string, and [`Cli::parse`] checks argv against that list: a flag no
//! binary knows, a flag this binary does not act on and a flag missing
//! its value each exit 2, naming the flag, before any run starts.

use crate::render::Console;
use crate::report::Recorder;
use crate::Mode;

/// Every switch, and every value-taking flag, a binary of this crate
/// acts on.
const SWITCHES: &str = "--full --quiet --check";
const VALUE_FLAGS: &str = "--json --trace --csv --scenarios --out";

/// The process's arguments after the program name: the one place the
/// binaries of this crate read them.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// A binary's command line: its mode, its console, the flags it was
/// given and its other arguments.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name, as its JSON document reports it.
    pub name: &'static str,
    /// `--full`, or quick mode.
    pub mode: Mode,
    /// Human output, routed by `--quiet` and `--json -`.
    pub con: Console,
    flags: Vec<(String, Option<String>)>,
    /// The arguments that are neither flags nor flag values, in order.
    pub words: Vec<String>,
}

impl Cli {
    /// Reads argv for the binary `name`, which acts on the flags in
    /// `accepts` and takes no other argument. Anything else exits 2 and
    /// names the argument.
    pub fn parse(name: &'static str, accepts: &str) -> Cli {
        let cli = Cli::parse_args(name, accepts, args()).and_then(|cli| match cli.words.first() {
            Some(word) => Err(format!("unexpected argument {word:?}")),
            None => Ok(cli),
        });
        cli.unwrap_or_else(|why| {
            eprintln!("{name}: {why}");
            std::process::exit(2);
        })
    }

    /// Splits `args` into the flags in `accepts` and the other words,
    /// or names the first flag that is unknown, not in `accepts` or
    /// missing its value. The argument after a value-taking flag is its
    /// value whatever it looks like (`-` for stdout, a path starting
    /// with dashes).
    pub fn parse_args(
        name: &'static str,
        accepts: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            name,
            mode: Mode::Quick,
            con: Console {
                quiet: false,
                to_stderr: false,
            },
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let takes_value = VALUE_FLAGS.split(' ').any(|f| f == a);
            if !a.starts_with("--") {
                cli.words.push(a);
            } else if !takes_value && !SWITCHES.split(' ').any(|f| f == a) {
                return Err(format!("unknown flag {a}"));
            } else if !accepts.split(' ').any(|f| f == a) {
                return Err(format!(
                    "{a} is not a flag of this command (its flags: {accepts})"
                ));
            } else if takes_value {
                let value = args.next().ok_or_else(|| format!("{a} requires a value"))?;
                cli.flags.push((a, Some(value)));
            } else {
                cli.flags.push((a, None));
            }
        }
        if cli.has("--full") {
            cli.mode = Mode::Full;
        }
        cli.con = Console {
            quiet: cli.has("--quiet"),
            to_stderr: cli.value("--json") == Some("-"),
        };
        Ok(cli)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of the first `flag` given, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let mut given = self.flags.iter().filter(|(f, _)| f == flag);
        given.next().and_then(|(_, v)| v.as_deref())
    }

    /// A recorder for this command line's outputs.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder::new(self)
    }
}
