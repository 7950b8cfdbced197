//! Pass control: identical spawn — the test config allowlists this file,
//! the way the real config allowlists the pool.

use std::thread;

pub fn fire_and_forget() {
    thread::spawn(|| {});
}
