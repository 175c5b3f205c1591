//! Lock acquisition without poisoning.
//!
//! A `std::sync` lock is poisoned when its holder panics, and every
//! later `lock()` then returns an error. The workspace's rule is the
//! opposite: a panicking holder never wedges or cascades into the other
//! threads. The lock is taken all the same, and the data is what the
//! panicking thread left. Every `Mutex` and `RwLock` in the stack is
//! taken through these three functions.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `m`, ignoring poison.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take a shared read guard on `l`, ignoring poison.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take the exclusive write guard on `l`, ignoring poison.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mutex_whose_holder_panicked_still_hands_over_the_stored_value() {
        let m = Mutex::new(0u32);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = lock(&m);
                *g = 7;
                panic!("holder dies with the lock held");
            })
            .join()
        });
        assert!(died.is_err() && m.is_poisoned());
        let got = std::thread::scope(|s| s.spawn(|| *lock(&m)).join().unwrap());
        assert_eq!(got, 7);
    }

    #[test]
    fn an_rwlock_whose_writer_panicked_still_hands_over_the_stored_value() {
        let l = RwLock::new(0u32);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = write(&l);
                *g = 9;
                panic!("writer dies with the lock held");
            })
            .join()
        });
        assert!(died.is_err() && l.is_poisoned());
        let got = std::thread::scope(|s| s.spawn(|| *read(&l)).join().unwrap());
        assert_eq!(got, 9);
        let got = std::thread::scope(|s| s.spawn(|| *write(&l)).join().unwrap());
        assert_eq!(got, 9);
    }
}
