//! Fixture: free-range thread spawns.

pub fn fire_and_forget() {
    std::thread::spawn(|| {});
}

pub fn named() -> std::io::Result<()> {
    std::thread::Builder::new()
        .name("rogue".to_string())
        .spawn(|| {})
        .map(|_| ())
}
