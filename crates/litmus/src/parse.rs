//! A text format for litmus programs — the inverse of the `Display`
//! rendering, so programs round-trip through text.
//!
//! ```text
//! init: m100=1
//! P0:
//!   0: W(m0) := 1
//!   1: Set(m100) := 0
//! P1:
//!   0: r0 := TestAndSet(m100)
//!   1: if r0 != 0 goto 0
//!   2: r1 := R(m0)
//! ```
//!
//! Leading instruction numbers and blank lines are optional; `#`-prefixed
//! lines are comments. See [`parse_program`]; [`parse_litmus_dir`] loads a
//! directory of `.litmus` files, such as the shipped `litmus-tests/`.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::{fmt, fs, io};

use memory_model::{Loc, Value};

use crate::{Instr, Operand, Program, ProgramError, Reg, Thread};

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<(usize, String)> for ParseError {
    fn from((line, message): (usize, String)) -> Self {
        ParseError { line, message }
    }
}

/// Why [`parse_litmus_dir`] failed, naming the directory or file.
#[derive(Debug)]
pub enum LoadError {
    /// Listing a directory or reading a file failed.
    Io(PathBuf, io::Error),
    /// A file's text did not parse.
    Parse(PathBuf, ParseError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LoadError::Parse(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl Error for LoadError {}

/// Parses every `.litmus` file directly in `dir`, then every one in
/// `dir/gen` (the generator-exported programs), each directory's files in
/// path order.
///
/// # Errors
///
/// Returns the first directory that cannot be listed, file that cannot be
/// read, or text that does not parse.
pub fn parse_litmus_dir(dir: &Path) -> Result<Vec<(PathBuf, Program)>, LoadError> {
    let mut programs = Vec::new();
    for sub in [dir.to_path_buf(), dir.join("gen")] {
        let io_error = |e| LoadError::Io(sub.clone(), e);
        let mut paths = Vec::new();
        for entry in fs::read_dir(&sub).map_err(io_error)? {
            let path = entry.map_err(io_error)?.path();
            if path.extension().is_some_and(|e| e == "litmus") {
                paths.push(path);
            }
        }
        paths.sort();
        for path in paths {
            let text = fs::read_to_string(&path).map_err(|e| LoadError::Io(path.clone(), e))?;
            let program = parse_program(&text).map_err(|e| LoadError::Parse(path.clone(), e))?;
            programs.push((path, program));
        }
    }
    Ok(programs)
}

/// Parses the litmus text format into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line, or the
/// [`ProgramError`] from final validation mapped onto line 0.
///
/// # Examples
///
/// ```
/// let text = "
/// init: m100=1
/// P0:
///   W(m0) := 42
///   Set(m100) := 0
/// P1:
///   r0 := TestAndSet(m100)
///   if r0 != 0 goto 0
///   r1 := R(m0)
/// ";
/// let program = litmus::parse::parse_program(text).unwrap();
/// assert_eq!(program.num_threads(), 2);
/// // Round trip: rendering and re-parsing yields the same program.
/// let again = litmus::parse::parse_program(&program.to_string()).unwrap();
/// assert_eq!(program, again);
/// ```
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut threads: Vec<Thread> = Vec::new();
    let mut current: Option<Thread> = None;
    let mut init: Vec<(Loc, Value)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("init:") {
            for cell in rest.split_whitespace() {
                let (l, v) = cell
                    .split_once('=')
                    .ok_or_else(|| (lineno, format!("bad init cell `{cell}`")))?;
                init.push((
                    parse_loc(l).map_err(|e| (lineno, e))?,
                    v.parse::<Value>()
                        .map_err(|_| (lineno, format!("bad init value `{v}`")))?,
                ));
            }
            continue;
        }
        if line.starts_with('P') && line.ends_with(':') && line[1..line.len() - 1]
            .chars()
            .all(|c| c.is_ascii_digit())
        {
            if let Some(done) = current.take() {
                threads.push(done);
            }
            current = Some(Thread::new());
            continue;
        }
        let thread = current
            .take()
            .ok_or_else(|| (lineno, "instruction before any `Pn:` header".to_string()))?;
        // Optional leading "<n>:" label.
        let body = match line.split_once(':') {
            Some((label, rest)) if label.trim().chars().all(|c| c.is_ascii_digit()) => {
                rest.trim()
            }
            _ => line,
        };
        let instr = parse_instr(body).map_err(|e| (lineno, e))?;
        current = Some(thread.push(instr));
    }
    if let Some(done) = current.take() {
        threads.push(done);
    }

    Program::new(threads)
        .map(|p| p.with_init(init))
        .map_err(|e: ProgramError| ParseError { line: 0, message: e.to_string() })
}

fn parse_instr(body: &str) -> Result<Instr, String> {
    // Branches and jumps first.
    if let Some(rest) = body.strip_prefix("if ") {
        let (cond, target) = rest
            .split_once(" goto ")
            .ok_or_else(|| format!("branch without `goto`: `{body}`"))?;
        let target: usize =
            target.trim().parse().map_err(|_| format!("bad branch target in `{body}`"))?;
        if let Some((a, b)) = cond.split_once("==") {
            return Ok(Instr::BranchEq {
                a: parse_operand(a.trim())?,
                b: parse_operand(b.trim())?,
                target,
            });
        }
        if let Some((a, b)) = cond.split_once("!=") {
            return Ok(Instr::BranchNe {
                a: parse_operand(a.trim())?,
                b: parse_operand(b.trim())?,
                target,
            });
        }
        return Err(format!("branch needs `==` or `!=`: `{body}`"));
    }
    if let Some(target) = body.strip_prefix("goto ") {
        return Ok(Instr::Jump {
            target: target.trim().parse().map_err(|_| format!("bad jump target `{body}`"))?,
        });
    }
    if body == "fence" {
        return Ok(Instr::Fence);
    }

    let (lhs, rhs) = body
        .split_once(":=")
        .ok_or_else(|| format!("expected `:=` in `{body}`"))?;
    let (lhs, rhs) = (lhs.trim(), rhs.trim());

    // Writes: `W(loc) := src` / `Set(loc) := src`.
    if let Some(loc) = strip_call(lhs, "W") {
        return Ok(Instr::Write { loc: parse_loc(loc)?, src: parse_operand(rhs)? });
    }
    if let Some(loc) = strip_call(lhs, "Set") {
        return Ok(Instr::SyncWrite { loc: parse_loc(loc)?, src: parse_operand(rhs)? });
    }

    // Register targets: `rN := <expr>`.
    let dst = parse_reg(lhs)?;
    if let Some(loc) = strip_call(rhs, "R") {
        return Ok(Instr::Read { loc: parse_loc(loc)?, dst });
    }
    if let Some(loc) = strip_call(rhs, "Test") {
        return Ok(Instr::SyncRead { loc: parse_loc(loc)?, dst });
    }
    if let Some(loc) = strip_call(rhs, "TestAndSet") {
        return Ok(Instr::TestAndSet { loc: parse_loc(loc)?, dst });
    }
    if let Some(args) = strip_call(rhs, "FetchAdd") {
        let (loc, add) = args
            .split_once(',')
            .ok_or_else(|| format!("FetchAdd needs `loc, amount`: `{body}`"))?;
        return Ok(Instr::FetchAdd {
            loc: parse_loc(loc.trim())?,
            dst,
            add: parse_operand(add.trim())?,
        });
    }
    if let Some((a, b)) = rhs.split_once('+') {
        return Ok(Instr::Add {
            dst,
            a: parse_operand(a.trim())?,
            b: parse_operand(b.trim())?,
        });
    }
    Ok(Instr::Move { dst, src: parse_operand(rhs)? })
}

fn strip_call<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.strip_prefix(name)?
        .strip_prefix('(')?
        .strip_suffix(')')
}

fn parse_loc(text: &str) -> Result<Loc, String> {
    text.strip_prefix('m')
        .and_then(|n| n.parse::<u32>().ok())
        .map(Loc)
        .ok_or_else(|| format!("bad location `{text}` (expected `m<n>`)"))
}

fn parse_reg(text: &str) -> Result<Reg, String> {
    text.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Reg)
        .ok_or_else(|| format!("bad register `{text}` (expected `r<n>`)"))
}

fn parse_operand(text: &str) -> Result<Operand, String> {
    if let Ok(reg) = parse_reg(text) {
        return Ok(Operand::Reg(reg));
    }
    text.parse::<Value>()
        .map(Operand::Const)
        .map_err(|_| format!("bad operand `{text}` (expected `r<n>` or a number)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn parses_the_doc_example() {
        let text = "
            init: m100=1 m0=5
            P0:
              W(m0) := 42
              fence
              Set(m100) := 0
            P1:
              r0 := TestAndSet(m100)
              if r0 != 0 goto 0
              r1 := R(m0)
              r2 := r1 + 1
              r3 := FetchAdd(m101, 1)
              goto 6
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.init(), &[(Loc(100), 1), (Loc(0), 5)]);
        assert_eq!(p.threads()[0].len(), 3);
        assert_eq!(p.threads()[1].len(), 6);
    }

    #[test]
    fn whole_corpus_round_trips_through_text() {
        let programs: Vec<Program> = corpus::drf0_suite()
            .into_iter()
            .map(|(_, p)| p)
            .chain(corpus::racy_suite().into_iter().map(|(_, p)| p))
            .chain([
                corpus::fig1_dekker_fenced(),
                corpus::peterson_data(),
                corpus::peterson_sync(),
                corpus::tts_spinlock(3, 2),
            ])
            .collect();
        for p in programs {
            let text = p.to_string();
            let parsed = parse_program(&text).unwrap_or_else(|e| {
                panic!("failed to re-parse rendered program: {e}\n{text}")
            });
            assert_eq!(p, parsed, "round trip changed the program:\n{text}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "
            # a full-line comment
            P0:

              W(m0) := 1   # trailing comment
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.threads()[0].len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("P0:\n  W(m0) = 1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected `:=`"));

        let err = parse_program("W(m0) := 1").unwrap_err();
        assert!(err.message.contains("before any"));

        let err = parse_program("P0:\n  if r0 ~= 1 goto 0").unwrap_err();
        assert!(err.message.contains("`==` or `!=`"));

        let err = parse_program("init: m0:5").unwrap_err();
        assert!(err.message.contains("bad init cell"));

        let err = parse_program("P0:\n  r0 := R(x0)").unwrap_err();
        assert!(err.message.contains("bad location"));
    }

    #[test]
    fn bad_branch_targets_surface_program_validation() {
        let err = parse_program("P0:\n  goto 9").unwrap_err();
        assert_eq!(err.line, 0, "validation errors map to line 0");
        assert!(err.message.contains("branch target"));
    }

    #[test]
    fn numbered_and_unnumbered_instructions_mix() {
        let a = parse_program("P0:\n  0: W(m0) := 1\n  1: r0 := R(m0)").unwrap();
        let b = parse_program("P0:\n  W(m0) := 1\n  r0 := R(m0)").unwrap();
        assert_eq!(a, b);
    }
}
