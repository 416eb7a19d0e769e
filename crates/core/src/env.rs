//! The interpreter environment: a single global scope, like a Python module.

use crate::error::{rt, FlorError};
use crate::value::Value;
use std::collections::HashMap;

/// Variable bindings for a running script.
#[derive(Default)]
pub struct Env {
    vars: HashMap<String, Value>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or rebinds) a name.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Looks up a name. Returns a borrow — callers that need ownership
    /// clone at the call site, so cheap inspections (type checks, size
    /// estimates, identity probes) stop paying for a deep `Value` clone.
    pub fn get(&self, name: &str) -> Result<&Value, FlorError> {
        self.vars
            .get(name)
            .ok_or_else(|| rt(format!("name {name:?} is not defined")))
    }

    /// Looks up a name without erroring. Borrowing, like [`Env::get`].
    pub(crate) fn try_get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// True if the name is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// All bound names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.vars.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut env = Env::new();
        env.set("x", Value::Int(3));
        assert_eq!(env.get("x").unwrap().as_i64().unwrap(), 3);
        env.set("x", Value::Float(1.5));
        assert_eq!(env.get("x").unwrap().as_f64().unwrap(), 1.5);
    }

    #[test]
    fn missing_name_errors() {
        let env = Env::new();
        let err = env.get("nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
        assert!(env.try_get("nope").is_none());
        assert!(!env.contains("nope"));
    }
}
