//! Seeded statement generator for `serve_zipf`: a pool of SQL statements
//! made by varying the literals of the 13 SSB templates, and per-client
//! Zipf-distributed request sequences over the pool.  The server receives
//! only the generated SQL text.

use std::collections::HashSet;

use morph_ssb::sql::{city_name, NATION_NAMES, REGION_NAMES};

use crate::harness::SplitMix64;

/// Statements in the pool.
pub const POOL_SIZE: usize = 256;
/// SSB query templates the pool is made from.
pub const TEMPLATES: usize = 13;
/// Zipf exponent of the request distribution.
pub const ZIPF_EXPONENT: f64 = 1.1;

fn year_range(rng: &mut SplitMix64) -> (u64, u64) {
    let low = rng.range(1992, 1997);
    (low, rng.range(low + 1, 1998))
}

fn two_cities(rng: &mut SplitMix64) -> (String, String) {
    let nation = rng.range(0, 24);
    let first = rng.range(0, 8);
    let second = rng.range(first + 1, 9);
    (
        city_name(nation * 10 + first),
        city_name(nation * 10 + second),
    )
}

fn two_mfgrs(rng: &mut SplitMix64) -> (u64, u64) {
    let first = rng.range(1, 4);
    (first, rng.range(first + 1, 5))
}

/// One statement of SSB template `template` (0 = Q1.1 … 12 = Q4.3) with
/// literals drawn from `rng`.  Every literal stays inside the domain the
/// generator populates, so each statement compiles and executes.
fn instantiate(template: usize, rng: &mut SplitMix64) -> String {
    let region = |rng: &mut SplitMix64| REGION_NAMES[rng.range(0, 4) as usize];
    match template {
        0 => {
            let discount = rng.range(1, 8);
            format!(
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey AND d_year = {} \
                 AND lo_discount BETWEEN {} AND {} AND lo_quantity < {}",
                rng.range(1992, 1998),
                discount,
                discount + 2,
                rng.range(20, 35)
            )
        }
        1 => {
            let discount = rng.range(1, 8);
            let quantity = rng.range(1, 40);
            format!(
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey AND d_yearmonthnum = {}{:02} \
                 AND lo_discount BETWEEN {} AND {} AND lo_quantity BETWEEN {} AND {}",
                rng.range(1992, 1998),
                rng.range(1, 12),
                discount,
                discount + 2,
                quantity,
                quantity + 9
            )
        }
        2 => {
            let discount = rng.range(1, 8);
            let quantity = rng.range(1, 40);
            format!(
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey \
                 AND d_weeknuminyear = {} AND d_year = {} \
                 AND lo_discount BETWEEN {} AND {} AND lo_quantity BETWEEN {} AND {}",
                rng.range(1, 48),
                rng.range(1992, 1998),
                discount,
                discount + 2,
                quantity,
                quantity + 9
            )
        }
        3 => format!(
            "SELECT SUM(lo_revenue), d_year, p_brand1 \
             FROM lineorder, part, supplier, date \
             WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
             AND lo_orderdate = d_datekey \
             AND p_category = 'MFGR#{}{}' AND s_region = '{}' \
             GROUP BY d_year, p_brand1",
            rng.range(1, 5),
            rng.range(1, 5),
            region(rng)
        ),
        4 => {
            let (mfgr, category, brand) = (rng.range(1, 5), rng.range(1, 5), rng.range(1, 33));
            format!(
                "SELECT SUM(lo_revenue), d_year, p_brand1 \
                 FROM lineorder, part, supplier, date \
                 WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND p_brand1 BETWEEN 'MFGR#{mfgr}{category}{brand}' \
                 AND 'MFGR#{mfgr}{category}{}' AND s_region = '{}' \
                 GROUP BY d_year, p_brand1",
                brand + 7,
                region(rng)
            )
        }
        5 => format!(
            "SELECT SUM(lo_revenue), d_year, p_brand1 \
             FROM lineorder, part, supplier, date \
             WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
             AND lo_orderdate = d_datekey \
             AND p_brand1 = 'MFGR#{}{}{}' AND s_region = '{}' \
             GROUP BY d_year, p_brand1",
            rng.range(1, 5),
            rng.range(1, 5),
            rng.range(1, 40),
            region(rng)
        ),
        6 => {
            let region = region(rng);
            let (low, high) = year_range(rng);
            format!(
                "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_region = '{region}' AND s_region = '{region}' \
                 AND d_year BETWEEN {low} AND {high} \
                 GROUP BY c_nation, s_nation, d_year"
            )
        }
        7 => {
            let nation = NATION_NAMES[rng.range(0, 24) as usize];
            let (low, high) = year_range(rng);
            format!(
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_nation = '{nation}' AND s_nation = '{nation}' \
                 AND d_year BETWEEN {low} AND {high} \
                 GROUP BY c_city, s_city, d_year"
            )
        }
        8 => {
            let (first, second) = two_cities(rng);
            let (low, high) = year_range(rng);
            format!(
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_city IN ('{first}', '{second}') \
                 AND s_city IN ('{first}', '{second}') \
                 AND d_year BETWEEN {low} AND {high} \
                 GROUP BY c_city, s_city, d_year"
            )
        }
        9 => {
            let (first, second) = two_cities(rng);
            format!(
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_city IN ('{first}', '{second}') \
                 AND s_city IN ('{first}', '{second}') \
                 AND d_yearmonthnum = {}{:02} \
                 GROUP BY c_city, s_city, d_year",
                rng.range(1992, 1998),
                rng.range(1, 12)
            )
        }
        10 => {
            let region = region(rng);
            let (first, second) = two_mfgrs(rng);
            format!(
                "SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = '{region}' AND s_region = '{region}' \
                 AND p_mfgr IN ('MFGR#{first}', 'MFGR#{second}') \
                 GROUP BY d_year, c_nation"
            )
        }
        11 => {
            let region = region(rng);
            let (first, second) = two_mfgrs(rng);
            let year = rng.range(1992, 1997);
            format!(
                "SELECT d_year, s_nation, p_category, \
                 SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = '{region}' AND s_region = '{region}' \
                 AND p_mfgr IN ('MFGR#{first}', 'MFGR#{second}') \
                 AND d_year BETWEEN {year} AND {} \
                 GROUP BY d_year, s_nation, p_category",
                year + 1
            )
        }
        _ => {
            let nation = rng.range(0, 24);
            let year = rng.range(1992, 1997);
            format!(
                "SELECT d_year, s_city, p_brand1, \
                 SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = '{}' AND s_nation = '{}' \
                 AND p_category = 'MFGR#{}{}' \
                 AND d_year BETWEEN {year} AND {} \
                 GROUP BY d_year, s_city, p_brand1",
                REGION_NAMES[(nation / 5) as usize],
                NATION_NAMES[nation as usize],
                rng.range(1, 5),
                rng.range(1, 5),
                year + 1
            )
        }
    }
}

/// The pool: `POOL_SIZE` distinct statements.  Popularity rank `r` uses
/// template `r % 13`, so every template is spread evenly over the
/// popularity range and the hot set never collapses onto one flight.
///
/// The pool is the same for every `--seed`: under Zipf(1.1) the top
/// statement alone draws 23 % of the requests, so a pool whose literals
/// moved with the seed would measure which statements happened to land on
/// top (throughput ranged 1.4 k–5.6 k ops/s over ten seeds), not the
/// server.  The seed drives the per-client request sequences and the data.
pub fn pool() -> Vec<String> {
    let mut rng = SplitMix64::new(0x5EED_0F57_A7E5);
    let mut seen = HashSet::new();
    let mut statements = Vec::with_capacity(POOL_SIZE);
    for rank in 0..POOL_SIZE {
        loop {
            let sql = instantiate(rank % TEMPLATES, &mut rng);
            if seen.insert(sql.clone()) {
                statements.push(sql);
                break;
            }
        }
    }
    statements
}

/// Cumulative Zipf(`ZIPF_EXPONENT`) distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n)
        .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut running = 0.0;
    weights
        .iter()
        .map(|w| {
            running += w / total;
            running
        })
        .collect()
}

/// Endless Zipf-distributed sequence of pool indices for one client.
#[derive(Debug, Clone)]
pub struct ZipfSequence {
    rng: SplitMix64,
    cdf: Vec<f64>,
}

impl ZipfSequence {
    pub fn new(seed: u64, client: usize, pool_size: usize) -> ZipfSequence {
        ZipfSequence {
            rng: SplitMix64::new(
                seed.wrapping_mul(0x9E37_79B9)
                    .wrapping_add(client as u64 + 1),
            ),
            cdf: zipf_cdf(pool_size),
        }
    }
}

impl Iterator for ZipfSequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let u = self.rng.unit();
        Some(
            self.cdf
                .partition_point(|&c| c <= u)
                .min(self.cdf.len() - 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_or_client_differs() {
        assert_eq!(pool(), pool());
        let take = |seed, client| -> Vec<usize> {
            ZipfSequence::new(seed, client, POOL_SIZE)
                .take(500)
                .collect()
        };
        assert_eq!(take(42, 0), take(42, 0));
        assert_ne!(take(42, 0), take(43, 0));
        assert_ne!(take(42, 0), take(42, 1));
    }

    #[test]
    fn pool_statements_are_distinct_and_compile() {
        let catalog = morph_ssb::ssb_catalog();
        let statements = pool();
        assert_eq!(statements.len(), POOL_SIZE);
        let distinct: HashSet<&String> = statements.iter().collect();
        assert_eq!(distinct.len(), POOL_SIZE);
        for sql in &statements {
            morph_sql::compile(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn zipf_is_skewed_and_stays_in_range() {
        let draws: Vec<usize> = ZipfSequence::new(7, 0, POOL_SIZE).take(20_000).collect();
        assert!(draws.iter().all(|&i| i < POOL_SIZE));
        let top = draws.iter().filter(|&&i| i == 0).count() as f64 / draws.len() as f64;
        // Rank 1 of Zipf(1.1) over 256 ranks carries ≈ 23 % of the mass.
        assert!((0.18..0.28).contains(&top), "{top}");
        let head = draws.iter().filter(|&&i| i < 32).count() as f64 / draws.len() as f64;
        assert!(head > 0.6, "{head}");
    }
}
