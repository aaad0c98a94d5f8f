//! Command-line reading for the `dse` and `dse-serve` binaries and the
//! figure binaries of `hydra-bench`.
//!
//! [`Args`] checks an argument list against the option lines of a usage
//! text, so each binary's help text stays the one list of options it
//! accepts. [`Args::spec_fields`] reads the sweep-spec options into
//! [`SpecFields`]; it checks only their syntax.
//! [`SpecFields::into_spec`] applies the defaults and ends with
//! [`crate::ScenarioSpec::validate`], which holds every rule on values and
//! which the figure binaries apply to the specs they build themselves.

use std::str::FromStr;

use crate::spec::SpecFields;

/// One option as its usage line declares it.
struct UsageOption {
    /// Whether the next argument is the option's value (`--cores A,B,...`).
    takes_value: bool,
    /// Whether the value may follow an `=` instead (`--progress[=SECS]`).
    inline_value: bool,
}

/// Looks `name` up among the option lines of `usage` (the lines indented
/// by exactly four spaces that start with `--`).
fn usage_option(usage: &str, name: &str) -> Option<UsageOption> {
    usage.lines().find_map(|line| {
        let decl = line.strip_prefix("    --")?;
        let token_len = decl.find(' ').unwrap_or(decl.len());
        let (token, rest) = decl.split_at(token_len);
        let (declared, inline_value) = match token.split_once("[=") {
            Some((declared, _)) => (declared, true),
            None => (token, false),
        };
        (name.strip_prefix("--")? == declared).then(|| UsageOption {
            // A metavariable follows after exactly one space; the help
            // column starts after several.
            takes_value: rest.len() > 1 && !rest[1..].starts_with(' '),
            inline_value,
        })
    })
}

/// A binary's arguments (after its command, if it has one), read against
/// its usage text.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    args: Vec<String>,
}

impl Args {
    /// Wraps `args` for a binary whose options are the option lines of
    /// `usage`.
    pub fn new<I, S>(usage: &'static str, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Args {
            usage,
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Rejects what the binary does not understand: options missing from
    /// its usage text, repeated options, value options without a value,
    /// and stray positional arguments.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut args = self.args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument {arg}"));
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, _)) => (name, true),
                None => (arg.as_str(), false),
            };
            let option = usage_option(self.usage, name)
                .filter(|o| !inline || o.inline_value)
                .ok_or_else(|| format!("unknown option {arg}"))?;
            if seen.contains(&name) {
                return Err(format!("duplicate option {name}"));
            }
            seen.push(name);
            if option.takes_value {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {}
                    Some(flag) => return Err(format!("option {name} expects a value, got {flag}")),
                    None => return Err(format!("option {name} expects a value")),
                }
            }
        }
        Ok(())
    }

    /// Whether `--help` or `-h` is among the arguments.
    #[must_use]
    pub fn help_requested(&self) -> bool {
        self.args.iter().any(|a| a == "--help" || a == "-h")
    }

    /// The value after option `key`, if the option is present.
    #[must_use]
    pub fn value_of(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The value of option `key` given inline as `KEY=VALUE`, if present.
    #[must_use]
    pub fn inline_value(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find_map(|a| a.strip_prefix(key)?.strip_prefix('='))
    }

    /// Whether the valueless option `key` is present.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    /// The value of option `key`, parsed.
    ///
    /// # Errors
    ///
    /// `invalid value for KEY: VALUE` when the value does not parse.
    pub fn parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value_of(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {key}: {raw}")),
        }
    }

    /// The comma-separated values of option `key`, each parsed; an empty
    /// value is the empty list.
    ///
    /// # Errors
    ///
    /// `invalid KEY: ITEM` for the first item that does not parse.
    pub fn parsed_list<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.value_of(key) {
            None => Ok(None),
            Some("") => Ok(Some(Vec::new())),
            Some(raw) => raw
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| format!("invalid {key}: {p}")))
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }

    /// Reads the `dse sweep` spec options into [`SpecFields`]: each option
    /// is its request key with `-` for `_`, except `--period-policy` for
    /// `period_policies`.
    ///
    /// # Errors
    ///
    /// A value that does not parse as its field's type.
    pub fn spec_fields(&self) -> Result<SpecFields, String> {
        let text = |key: &str| self.value_of(key).map(str::to_owned);
        Ok(SpecFields {
            name: text("--name"),
            workload: text("--workload"),
            eval: text("--eval"),
            horizon: self.parsed("--horizon")?,
            attacks: self.parsed("--attacks")?,
            cores: self.parsed_list("--cores")?,
            util_steps: self.parsed("--util-steps")?,
            utils: self.parsed_list("--utils")?,
            allocators: self.parsed_list("--allocators")?,
            period_policies: self.parsed_list("--period-policy")?,
            trials: self.parsed("--trials")?,
            seed: self.parsed("--seed")?,
            sec_tasks: self.parsed_list("--sec-tasks")?,
            sample: self.parsed("--sample")?,
            explore: text("--explore"),
            refine_budget: self.parsed("--refine-budget")?,
        })
    }
}
