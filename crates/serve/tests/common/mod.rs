//! Shared fixture for the serve integration tests: a deterministic demo
//! dataset.

/// A small product-matching task with overlapping vocabulary, enough rows
/// for blocking to find candidates, and known gold pairs.
pub fn demo_csvs() -> (String, String, Vec<Vec<u32>>) {
    let brands = [
        "acme", "zenith", "orion", "vertex", "nimbus", "quartz", "ember", "cobalt",
    ];
    let mut left = String::from("id,name,price\n");
    let mut right = String::from("id,name,price\n");
    let mut gold = Vec::new();
    for (i, brand) in brands.iter().enumerate() {
        left.push_str(&format!(
            "{i},{brand} turbo widget model {i},{}\n",
            100 + i * 10
        ));
        right.push_str(&format!(
            "{i},{brand} widget turbo mk {i},{}\n",
            101 + i * 10
        ));
        gold.push(vec![i as u32, i as u32]);
    }
    (left, right, gold)
}
