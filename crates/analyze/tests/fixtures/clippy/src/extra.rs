//! Shapes the analyzer fixture never had: the rest of the banned clock
//! and environment entry points, `panic!`, and a reason-less `allow`.

pub fn wall_clock() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn env_size() -> usize {
    let a = std::env::var_os("FLOWTUNE_FIXTURE").map_or(0, |v| v.len());
    let b = std::env::vars().count();
    let c = std::env::args().count();
    let d = std::env::args_os().count();
    a + b + c + d
}

pub fn give_up() -> u64 {
    panic!("fixture panic")
}

#[allow(clippy::panic)]
pub fn quietly_give_up() -> u64 {
    panic!("allowed, but without a reason")
}
