//! SQL front-end bindings for the SSB schema: the catalog the `morph-sql`
//! resolver compiles against, and the 13 queries as SQL text.
//!
//! The catalog declares the per-column order-preserving string dictionaries
//! from [`crate::dict`], so SQL predicates over strings (`s_region =
//! 'AMERICA'`, `p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'`) compile to
//! integer-key selections over the generated columns.  Compiling
//! [`SsbQuery::sql`] against this catalog is how [`SsbQuery::plan`]
//! produces every query's plan.

use morph_sql::{Catalog, TableDef};

use crate::dict;
use crate::queries::SsbQuery;

/// The region names in dictionary-key order (keys 0–4).
pub const REGION_NAMES: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The nation names in dictionary-key order: five per region
/// (`nation_key = region * 5 + i`), matching the constants in
/// [`crate::dict`] (`UNITED STATES` = 9, `CHINA` = 11, `UNITED KINGDOM` =
/// 18).
pub const NATION_NAMES: [&str; 25] = [
    // AFRICA
    "ALGERIA",
    "EGYPT",
    "ETHIOPIA",
    "KENYA",
    "MOROCCO",
    // AMERICA
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "PERU",
    "UNITED STATES",
    // ASIA
    "INDIA",
    "CHINA",
    "INDONESIA",
    "JAPAN",
    "VIETNAM",
    // EUROPE
    "FRANCE",
    "GERMANY",
    "ROMANIA",
    "UNITED KINGDOM",
    "RUSSIA",
    // MIDDLE EAST
    "IRAN",
    "IRAQ",
    "ISRAEL",
    "JORDAN",
    "SAUDI ARABIA",
];

/// The city name of city key `city`: as in SSB dbgen, the nation name
/// truncated or space-padded to nine characters followed by one digit
/// (`1`–`9`, then `0` for the tenth city), so `CITY_UNITED_KI1` (= 180)
/// prints as `"UNITED KI1"`.
pub fn city_name(city: u64) -> String {
    assert!(city < dict::CITIES);
    let nation = NATION_NAMES[dict::nation_of_city(city) as usize];
    let mut prefix: String = nation.chars().take(9).collect();
    while prefix.chars().count() < 9 {
        prefix.push(' ');
    }
    format!("{prefix}{}", (city % 10 + 1) % 10)
}

fn region_dict() -> impl Iterator<Item = (String, u64)> {
    REGION_NAMES
        .iter()
        .enumerate()
        .map(|(key, name)| (name.to_string(), key as u64))
}

fn nation_dict() -> impl Iterator<Item = (String, u64)> {
    NATION_NAMES
        .iter()
        .enumerate()
        .map(|(key, name)| (name.to_string(), key as u64))
}

fn city_dict() -> impl Iterator<Item = (String, u64)> {
    (0..dict::CITIES).map(|key| (city_name(key), key))
}

fn mfgr_dict() -> impl Iterator<Item = (String, u64)> {
    (1..=5u64).map(|m| (format!("MFGR#{m}"), dict::mfgr(m)))
}

fn category_dict() -> impl Iterator<Item = (String, u64)> {
    (1..=5u64).flat_map(|m| (1..=5u64).map(move |c| (format!("MFGR#{m}{c}"), dict::category(m, c))))
}

fn brand_dict() -> impl Iterator<Item = (String, u64)> {
    (1..=5u64).flat_map(|m| {
        (1..=5u64).flat_map(move |c| {
            (1..=40u64).map(move |b| (format!("MFGR#{m}{c}{b}"), dict::brand(m, c, b)))
        })
    })
}

/// The SSB catalog: the five tables with their columns, primary keys and
/// string dictionaries, matching the columns [`crate::dbgen::generate`]
/// produces.
pub fn ssb_catalog() -> Catalog {
    Catalog::new()
        .with_table(
            TableDef::new("date")
                .with_primary_key("d_datekey")
                .with_column("d_datekey")
                .with_column("d_year")
                .with_column("d_yearmonthnum")
                .with_column("d_weeknuminyear")
                .with_column("d_month"),
        )
        .with_table(
            TableDef::new("customer")
                .with_primary_key("c_custkey")
                .with_column("c_custkey")
                .with_dict_column("c_city", city_dict())
                .with_dict_column("c_nation", nation_dict())
                .with_dict_column("c_region", region_dict()),
        )
        .with_table(
            TableDef::new("supplier")
                .with_primary_key("s_suppkey")
                .with_column("s_suppkey")
                .with_dict_column("s_city", city_dict())
                .with_dict_column("s_nation", nation_dict())
                .with_dict_column("s_region", region_dict()),
        )
        .with_table(
            TableDef::new("part")
                .with_primary_key("p_partkey")
                .with_column("p_partkey")
                .with_dict_column("p_mfgr", mfgr_dict())
                .with_dict_column("p_category", category_dict())
                .with_dict_column("p_brand1", brand_dict()),
        )
        .with_table(
            TableDef::new("lineorder")
                .with_column("lo_orderdate")
                .with_column("lo_custkey")
                .with_column("lo_suppkey")
                .with_column("lo_partkey")
                .with_column("lo_quantity")
                .with_column("lo_extendedprice")
                .with_column("lo_discount")
                .with_column("lo_revenue")
                .with_column("lo_supplycost"),
        )
}

impl SsbQuery {
    /// The query as SQL text over the [`ssb_catalog`] schema.
    ///
    /// The texts state the benchmark's predicates over the original string
    /// domains; [`SsbQuery::plan`] compiles them into the query's star-join
    /// plan.  `ORDER BY` is omitted: the plans produce rows in
    /// group-discovery order, and the tests compare sorted rows.
    pub fn sql(&self) -> &'static str {
        match self {
            SsbQuery::Q1_1 => {
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey AND d_year = 1993 \
                 AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25"
            }
            SsbQuery::Q1_2 => {
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401 \
                 AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35"
            }
            SsbQuery::Q1_3 => {
                "SELECT SUM(lo_extendedprice * lo_discount) AS revenue \
                 FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey \
                 AND d_weeknuminyear = 6 AND d_year = 1994 \
                 AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35"
            }
            SsbQuery::Q2_1 => {
                "SELECT SUM(lo_revenue), d_year, p_brand1 \
                 FROM lineorder, part, supplier, date \
                 WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND p_category = 'MFGR#12' AND s_region = 'AMERICA' \
                 GROUP BY d_year, p_brand1"
            }
            SsbQuery::Q2_2 => {
                "SELECT SUM(lo_revenue), d_year, p_brand1 \
                 FROM lineorder, part, supplier, date \
                 WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' \
                 AND s_region = 'ASIA' \
                 GROUP BY d_year, p_brand1"
            }
            SsbQuery::Q2_3 => {
                "SELECT SUM(lo_revenue), d_year, p_brand1 \
                 FROM lineorder, part, supplier, date \
                 WHERE lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE' \
                 GROUP BY d_year, p_brand1"
            }
            SsbQuery::Q3_1 => {
                "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_region = 'ASIA' AND s_region = 'ASIA' \
                 AND d_year BETWEEN 1992 AND 1997 \
                 GROUP BY c_nation, s_nation, d_year"
            }
            SsbQuery::Q3_2 => {
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES' \
                 AND d_year BETWEEN 1992 AND 1997 \
                 GROUP BY c_city, s_city, d_year"
            }
            SsbQuery::Q3_3 => {
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_city IN ('UNITED KI1', 'UNITED KI5') \
                 AND s_city IN ('UNITED KI1', 'UNITED KI5') \
                 AND d_year BETWEEN 1992 AND 1997 \
                 GROUP BY c_city, s_city, d_year"
            }
            SsbQuery::Q3_4 => {
                "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue \
                 FROM customer, lineorder, supplier, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_orderdate = d_datekey \
                 AND c_city IN ('UNITED KI1', 'UNITED KI5') \
                 AND s_city IN ('UNITED KI1', 'UNITED KI5') \
                 AND d_yearmonthnum = 199712 \
                 GROUP BY c_city, s_city, d_year"
            }
            SsbQuery::Q4_1 => {
                "SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = 'AMERICA' AND s_region = 'AMERICA' \
                 AND p_mfgr IN ('MFGR#1', 'MFGR#2') \
                 GROUP BY d_year, c_nation"
            }
            SsbQuery::Q4_2 => {
                "SELECT d_year, s_nation, p_category, \
                 SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = 'AMERICA' AND s_region = 'AMERICA' \
                 AND p_mfgr IN ('MFGR#1', 'MFGR#2') \
                 AND d_year BETWEEN 1997 AND 1998 \
                 GROUP BY d_year, s_nation, p_category"
            }
            SsbQuery::Q4_3 => {
                "SELECT d_year, s_city, p_brand1, \
                 SUM(lo_revenue - lo_supplycost) AS profit \
                 FROM lineorder, customer, supplier, part, date \
                 WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                 AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                 AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES' \
                 AND p_category = 'MFGR#14' \
                 AND d_year BETWEEN 1997 AND 1998 \
                 GROUP BY d_year, s_city, p_brand1"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_keys_match_the_dict_module() {
        let catalog = ssb_catalog();
        let regions = catalog
            .table("supplier")
            .unwrap()
            .column("s_region")
            .unwrap();
        assert_eq!(regions.key_of("AMERICA"), Some(dict::REGION_AMERICA));
        assert_eq!(regions.key_of("EUROPE"), Some(dict::REGION_EUROPE));
        let nations = catalog
            .table("customer")
            .unwrap()
            .column("c_nation")
            .unwrap();
        assert_eq!(
            nations.key_of("UNITED STATES"),
            Some(dict::NATION_UNITED_STATES)
        );
        assert_eq!(nations.key_of("CHINA"), Some(dict::NATION_CHINA));
        assert_eq!(
            nations.key_of("UNITED KINGDOM"),
            Some(dict::NATION_UNITED_KINGDOM)
        );
        let cities = catalog.table("customer").unwrap().column("c_city").unwrap();
        assert_eq!(cities.key_of("UNITED KI1"), Some(dict::CITY_UNITED_KI1));
        assert_eq!(cities.key_of("UNITED KI5"), Some(dict::CITY_UNITED_KI5));
        let brands = catalog.table("part").unwrap().column("p_brand1").unwrap();
        assert_eq!(brands.key_of("MFGR#2221"), Some(dict::brand(2, 2, 21)));
        assert_eq!(brands.key_of("MFGR#2239"), Some(dict::brand(2, 2, 39)));
        let categories = catalog.table("part").unwrap().column("p_category").unwrap();
        assert_eq!(categories.key_of("MFGR#12"), Some(dict::category(1, 2)));
        assert_eq!(categories.key_of("MFGR#14"), Some(dict::category(1, 4)));
        let mfgrs = catalog.table("part").unwrap().column("p_mfgr").unwrap();
        assert_eq!(mfgrs.key_of("MFGR#1"), Some(dict::mfgr(1)));
        assert_eq!(mfgrs.key_of("MFGR#2"), Some(dict::mfgr(2)));
    }

    #[test]
    fn city_names_are_nine_chars_plus_digit() {
        assert_eq!(city_name(dict::CITY_UNITED_KI1), "UNITED KI1");
        assert_eq!(city_name(dict::CITY_UNITED_KI5), "UNITED KI5");
        assert_eq!(city_name(dict::NATION_CHINA * 10), "CHINA    1");
        assert_eq!(city_name(dict::NATION_CHINA * 10 + 9), "CHINA    0");
        // All 250 names are distinct (the dictionary must be injective).
        let names: std::collections::HashSet<String> = (0..dict::CITIES).map(city_name).collect();
        assert_eq!(names.len(), dict::CITIES as usize);
    }

    #[test]
    fn all_13_queries_compile_against_the_catalog() {
        let catalog = ssb_catalog();
        for query in SsbQuery::all() {
            let compiled = morph_sql::compile(query.sql(), &catalog)
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            let grouped = !matches!(query, SsbQuery::Q1_1 | SsbQuery::Q1_2 | SsbQuery::Q1_3);
            assert_eq!(compiled.is_scalar(), !grouped, "{query}");
        }
    }
}
