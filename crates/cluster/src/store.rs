//! The shared fetch memo: one scrape per unique URL for the whole cluster.
//!
//! Determinism across shard counts hinges on the page source seeing the
//! same fetch sequence whatever the cluster shape. A stateful source (a
//! fault plan, a circuit breaker, a retry clock) answers differently
//! depending on *when* it is asked, and per-node fetching would make that
//! order a function of placement. The router therefore performs every
//! fetch itself, in trace (first-occurrence) order, and deposits the
//! result here; nodes read through [`SharedStore`] — a [`PageSource`]
//! that only ever does keyed lookups of already-fetched pages.

use kyp_serve::{canonical_key, canonical_url, PageSource};
use kyp_web::{FailureCause, ScrapedPage};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A cheaply clonable handle onto the cluster's fetch memo. Every node's
/// scoring service holds one; the router holds the writing side.
///
/// Lookups are keyed (canonical request URL), never iterated, so the map
/// underneath cannot leak iteration order into anything (kyp-lint D01).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    pages: Rc<RefCell<HashMap<String, Result<ScrapedPage, FailureCause>>>>,
}

impl SharedStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// The store key of a request URL: its canonical form, or the raw
    /// string when it does not parse (mirroring the scoring service's own
    /// memo keying, so router and nodes always agree).
    pub fn key_of(url: &str) -> String {
        canonical_url(url).unwrap_or_else(|| url.to_owned())
    }

    /// Whether `key` has been fetched already.
    pub fn contains(&self, key: &str) -> bool {
        self.pages.borrow().contains_key(key)
    }

    /// The stored fetch result for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Result<ScrapedPage, FailureCause>> {
        self.pages.borrow().get(key).cloned()
    }

    /// The canonical landing key of the page stored under `key`, or its
    /// fetch failure — read in place, without copying the page.
    pub fn landing_key(&self, key: &str) -> Option<Result<String, FailureCause>> {
        self.pages.borrow().get(key).map(|fetched| match fetched {
            Ok(page) => Ok(canonical_key(&page.visit.landing_url)),
            Err(cause) => Err(*cause),
        })
    }

    /// Records the fetch result for `key`. First write wins: the memo is
    /// append-only, so a page can never change under a node.
    pub fn put(&self, key: String, result: Result<ScrapedPage, FailureCause>) {
        self.pages.borrow_mut().entry(key).or_insert(result);
    }

    /// Unique URLs fetched so far.
    pub fn len(&self) -> usize {
        self.pages.borrow().len()
    }

    /// `true` when nothing has been fetched yet.
    pub fn is_empty(&self) -> bool {
        self.pages.borrow().is_empty()
    }
}

impl PageSource for SharedStore {
    /// Keyed read of the memo. The router only dispatches requests whose
    /// fetch already succeeded, so a miss here means a caller bypassed
    /// the router; it surfaces as [`FailureCause::NotFound`] rather than
    /// panicking.
    fn fetch(&mut self, url: &str) -> Result<ScrapedPage, FailureCause> {
        let key = SharedStore::key_of(url);
        self.get(&key).unwrap_or(Err(FailureCause::NotFound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyp_url::Url;
    use kyp_web::{SourceAvailability, VisitedPage};

    fn page(url: &str) -> ScrapedPage {
        let u = Url::parse(url).unwrap();
        ScrapedPage {
            visit: VisitedPage {
                starting_url: u.clone(),
                landing_url: u.clone(),
                redirection_chain: vec![u],
                logged_links: Vec::new(),
                href_links: Vec::new(),
                text: "hello".into(),
                title: "T".into(),
                copyright: None,
                screenshot_text: String::new(),
                input_count: 0,
                image_count: 0,
                iframe_count: 0,
            },
            availability: SourceAvailability::FULL,
            attempts: 1,
            elapsed_ms: 0,
        }
    }

    #[test]
    fn clones_share_one_memo() {
        let a = SharedStore::new();
        let mut b = a.clone();
        let key = SharedStore::key_of("http://x.example.com/p");
        a.put(key, Ok(page("http://x.example.com/p")));
        let fetched = b.fetch("https://x.example.com/p?q=1").unwrap();
        assert_eq!(fetched.visit.title, "T");
        assert_eq!(a.len(), 1);
        assert_eq!(
            b.landing_key(&SharedStore::key_of("http://x.example.com/p")),
            Some(Ok(canonical_key(&fetched.visit.landing_url)))
        );
    }

    #[test]
    fn first_write_wins() {
        let store = SharedStore::new();
        let key = SharedStore::key_of("http://x.example.com/");
        store.put(key.clone(), Err(FailureCause::Timeout));
        store.put(key.clone(), Ok(page("http://x.example.com/")));
        assert_eq!(store.get(&key), Some(Err(FailureCause::Timeout)));
        assert_eq!(store.landing_key(&key), Some(Err(FailureCause::Timeout)));
        assert_eq!(store.landing_key("http://never.example.com/"), None);
    }

    #[test]
    fn missing_key_reads_not_found() {
        let mut store = SharedStore::new();
        assert_eq!(
            store.fetch("http://never.example.com/"),
            Err(FailureCause::NotFound)
        );
    }
}
