//! Table schemas: ordered `(name, type)` column descriptors.

use crate::{Result, TableError};

/// The three Ringo column types (paper §2.3: "integer, floating point, or
/// string").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Interned string.
    Str,
}

impl ColumnType {
    /// Human-readable type name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Int => "int",
            Self::Float => "float",
            Self::Str => "str",
        }
    }
}

impl std::fmt::Display for ColumnType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered list of named, typed columns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    cols: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Creates a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas are programmer-supplied
    /// constants and a duplicate is a bug at the call site.
    pub fn new<I, S>(cols: I) -> Self
    where
        I: IntoIterator<Item = (S, ColumnType)>,
        S: Into<String>,
    {
        let cols: Vec<(String, ColumnType)> =
            cols.into_iter().map(|(n, t)| (n.into(), t)).collect();
        for (i, (name, _)) in cols.iter().enumerate() {
            assert!(
                !cols[..i].iter().any(|(n, _)| n == name),
                "duplicate column name {name:?} in schema"
            );
        }
        Self { cols }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Index of the column called `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.cols
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))
    }

    /// The schema of the columns `names`, in that order, and their
    /// indices here: what a projection keeps. A name twice is an error.
    pub(crate) fn project<S: AsRef<str>>(&self, names: &[S]) -> Result<(Schema, Vec<usize>)> {
        let mut out = Schema::default();
        let mut idx = Vec::with_capacity(names.len());
        for name in names.iter().map(AsRef::as_ref) {
            let i = self.index_of(name)?;
            if out.contains(name) {
                return Err(TableError::InvalidArgument(format!(
                    "duplicate column {name:?} in projection"
                )));
            }
            out.cols.push(self.cols[i].clone());
            idx.push(i);
        }
        Ok((out, idx))
    }

    /// True when a column called `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.cols.iter().any(|(n, _)| n == name)
    }

    /// Name of column `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.cols[i].0
    }

    /// Type of column `i`.
    pub fn column_type(&self, i: usize) -> ColumnType {
        self.cols[i].1
    }

    /// Iterates over `(name, type)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.cols.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Appends a column; disambiguates clashes by suffixing `-1`, `-2`, ...
    /// (the convention visible in the paper's §4.1 demo, where a
    /// self-join's `UserId` columns become `UserId-1` / `UserId-2`).
    /// Returns the name actually used.
    pub(crate) fn push_unique(&mut self, name: &str, ty: ColumnType) -> String {
        if !self.contains(name) {
            self.cols.push((name.to_string(), ty));
            return name.to_string();
        }
        for suffix in 1.. {
            let candidate = format!("{name}-{suffix}");
            if !self.contains(&candidate) {
                self.cols.push((candidate.clone(), ty));
                return candidate;
            }
        }
        unreachable!()
    }

    /// Renames column `old` to `new`.
    pub(crate) fn rename(&mut self, old: &str, new: &str) -> Result<()> {
        if self.contains(new) {
            return Err(TableError::SchemaMismatch(format!(
                "column {new:?} already exists"
            )));
        }
        let i = self.index_of(old)?;
        self.cols[i].0 = new.to_string();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_iteration() {
        let s = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Str)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("c").is_err());
        assert_eq!(s.column_type(0), ColumnType::Int);
        let names: Vec<_> = s.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_panic() {
        Schema::new([("a", ColumnType::Int), ("a", ColumnType::Str)]);
    }

    #[test]
    fn push_unique_suffixes_clashes() {
        let mut s = Schema::new([("UserId", ColumnType::Int)]);
        assert_eq!(s.push_unique("UserId", ColumnType::Int), "UserId-1");
        assert_eq!(s.push_unique("UserId", ColumnType::Int), "UserId-2");
        assert_eq!(s.push_unique("Other", ColumnType::Str), "Other");
    }

    #[test]
    fn rename_checks_conflicts() {
        let mut s = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        assert!(s.rename("a", "b").is_err());
        s.rename("a", "c").unwrap();
        assert!(s.contains("c"));
        assert!(!s.contains("a"));
    }
}
