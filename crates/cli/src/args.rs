//! Minimal argument parsing (no external dependencies) and the graph
//! source every verb reads.
//!
//! Each verb declares its flags once, in a [`Flags`] table that says
//! whether each one takes a value. [`Args::parse`] reads `--switch`, `--key value`
//! and positional arguments against that table and rejects any other
//! flag; a `count-batch` spec line parses into the same [`Args`] through
//! [`Args::parse_spec_line`]. [`Args::source`] says where the verb's
//! graphs come from.

use std::collections::HashMap;
use std::error::Error;
use tnm_analysis::experiments::{Corpus, CORPUS_SEED};
use tnm_graph::TemporalGraph;

/// A verb's flags: groups of space-separated names (without `--`). A
/// trailing `=` marks a flag that takes a value (`--key value`), a bare
/// name a switch (`--flag`) — the notation of a `count-batch` spec line.
pub type Flags = &'static [&'static str];

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    verb: &'static str,
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Errors from argument parsing or lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--key` flag was not followed by a value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Raw value.
        value: String,
    },
    /// An unrecognized flag was supplied.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for --{flag}")
            }
            ArgError::Unknown(k) => write!(f, "unknown flag --{k}"),
        }
    }
}

impl Error for ArgError {}

/// Whether flag `name` takes a value, if `table` declares it.
fn takes_value(table: Flags, name: &str) -> Option<bool> {
    table.iter().flat_map(|group| group.split_whitespace()).find_map(|flag| {
        match flag.strip_suffix('=') {
            Some(valued) => (valued == name).then_some(true),
            None => (flag == name).then_some(false),
        }
    })
}

impl Args {
    /// Parses `verb`'s raw arguments (excluding the program and verb
    /// names) against its flag table.
    pub fn parse<I: IntoIterator<Item = String>>(
        verb: &'static str,
        table: Flags,
        raw: I,
    ) -> Result<Self, ArgError> {
        let mut out = Args { verb, ..Args::default() };
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                out.positional.push(tok);
                continue;
            };
            let value = match takes_value(table, name) {
                None => return Err(ArgError::Unknown(name.into())),
                Some(false) => "true".to_string(),
                Some(true) => iter.next().ok_or_else(|| ArgError::MissingValue(name.into()))?,
            };
            out.flags.insert(name.to_string(), value);
        }
        Ok(out)
    }

    /// Parses one `count-batch` spec line: whitespace-separated
    /// `key=value` tokens for the table's value flags and bare words for
    /// its switches.
    pub fn parse_spec_line(table: Flags, line: &str) -> Result<Self, String> {
        let mut out = Args::default();
        for tok in line.split_whitespace() {
            let (name, value) = match tok.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (tok, None),
            };
            let value = match (takes_value(table, name), value) {
                (Some(true), Some(value)) => value.to_string(),
                (Some(false), None) => "true".to_string(),
                _ => return Err(format!("unknown token `{tok}` (expected {})", table.join(" "))),
            };
            out.flags.insert(name.to_string(), value);
        }
        Ok(out)
    }

    /// The verb these arguments were parsed for (empty for a spec line).
    pub fn verb(&self) -> &'static str {
        self.verb
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// True if a boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// String flag value.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Typed flag value, if the flag was given.
    pub fn get_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        let Some(v) = self.flags.get(flag) else { return Ok(None) };
        v.parse().map(Some).map_err(|_| ArgError::BadValue { flag: flag.into(), value: v.clone() })
    }

    /// Typed flag value with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_opt(flag)?.unwrap_or(default))
    }

    /// Where this verb's graphs come from: `--input FILE`, or the
    /// synthetic dataset named by `--dataset NAME` or the first
    /// positional argument. Naming both is an error, and so is a
    /// generator flag beside `--input`: `--scale`, and `--seed` unless it
    /// seeds `--engine sampling`.
    pub fn source(&self) -> Result<Source<'_>, Box<dyn Error>> {
        let dataset = self.get("dataset").or_else(|| self.positional(0));
        let input = self.get("input");
        if input.is_some() {
            if dataset.is_some() {
                return Err("--input and --dataset are mutually exclusive".into());
            }
            let seeds_sampler = self.get("engine") == Some("sampling");
            if let Some(flag) = ["scale", "seed"]
                .into_iter()
                .find(|&flag| self.has(flag) && !(flag == "seed" && seeds_sampler))
            {
                return Err(format!("--{flag} applies to generated datasets, not --input").into());
            }
        }
        Ok(Source { args: self, input, dataset })
    }
}

/// A verb's resolved graph source (see [`Args::source`]). Generated
/// datasets are scaled by `--scale F` (default 1) and seeded by
/// `--seed N`.
pub struct Source<'a> {
    args: &'a Args,
    input: Option<&'a str>,
    dataset: Option<&'a str>,
}

impl Source<'_> {
    /// The one graph a one-graph verb reads, with the name its output
    /// uses: the file's stem for `--input`, else the dataset's name.
    pub fn graph(&self) -> Result<(String, TemporalGraph), Box<dyn Error>> {
        if let Some(path) = self.input {
            let graph = tnm_graph::io::read_edge_list_file(path)
                .map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let stem = std::path::Path::new(path).file_stem().unwrap_or_default();
            return Ok((stem.to_string_lossy().into_owned(), graph));
        }
        if self.dataset.is_none() {
            let verb = self.args.verb;
            return Err(format!("{verb} requires --dataset NAME or --input FILE").into());
        }
        let entry = self.corpus()?.entries.into_iter().next().expect("one dataset was named");
        Ok((entry.spec.name, entry.graph))
    }

    /// The corpus a table, figure or `stats` verb reads: the named
    /// dataset alone, or all nine. No corpus verb takes `--input`.
    pub fn corpus(&self) -> Result<Corpus, Box<dyn Error>> {
        let scale: f64 = self.args.get_parsed("scale", 1.0)?;
        let seed: u64 = self.args.get_parsed("seed", CORPUS_SEED)?;
        match self.dataset {
            Some(name) => Corpus::named(&[name], scale, seed)
                .map_err(|e| format!("{e} (see `tnm list`)").into()),
            None => Ok(Corpus::scaled(scale, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Flags = &["seed= scale=", "csv"];

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse("test", TABLE, tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn mixed_args() {
        let a = parse(&["--seed", "7", "pos0", "--csv", "--scale", "0.5"]).unwrap();
        assert_eq!(a.positional(0), Some("pos0"));
        assert!(a.has("csv"));
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get_parsed::<f64>("scale", 1.0).unwrap(), 0.5);
        assert_eq!(a.get_parsed::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn missing_value_error() {
        let err = parse(&["--seed"]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("seed".to_string()));
    }

    #[test]
    fn bad_value_error() {
        let a = parse(&["--seed", "xyz"]).unwrap();
        assert!(matches!(a.get_parsed::<u64>("seed", 0), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(parse(&["--bogus", "1"]).unwrap_err(), ArgError::Unknown("bogus".to_string()));
        assert!(parse(&["--seed", "1"]).is_ok());
        // A valueless unknown flag is unknown, not missing its value.
        assert_eq!(parse(&["--bogus"]).unwrap_err(), ArgError::Unknown("bogus".to_string()));
    }

    #[test]
    fn spec_lines_use_the_flag_kinds() {
        let a = Args::parse_spec_line(TABLE, "seed=7 csv").unwrap();
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert!(a.has("csv"));
        for bad in ["seed", "csv=1", "bogus=1"] {
            let err = Args::parse_spec_line(TABLE, bad).unwrap_err();
            assert!(err.contains(bad) && err.contains("seed= scale= csv"), "{err}");
        }
    }
}
