//! Fixed-point decimal arithmetic.
//!
//! TPC-H money columns are `DECIMAL(12,2)`; the paper's Query 1 computes
//! `SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))`, which multiplies
//! three scale-2 values. We therefore carry an explicit scale (0..=[`MAX_SCALE`])
//! and a 128-bit mantissa so that multi-million-row sums cannot overflow.

use crate::error::{DbError, Result};
use std::cmp::Ordering;
use std::fmt;

/// Maximum number of fractional digits carried by a [`Decimal`].
///
/// Multiplication adds scales; results beyond this are rescaled (rounded
/// half-away-from-zero) back down, matching typical SQL numeric behaviour.
pub const MAX_SCALE: u8 = 8;

const POW10: [i128; 19] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
];

/// A fixed-point decimal: `mantissa * 10^-scale`.
///
/// Packed to 8-byte alignment: at `i128`'s own 16 the struct is 32 bytes
/// and every `Datum` 48; packed it is 24 and a `Datum` 32 — a third off
/// every stored row. (Fields are only ever read by value.)
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
pub struct Decimal {
    mantissa: i128,
    scale: u8,
}

impl Decimal {
    /// Construct from a raw mantissa and scale. `scale` must be `<= MAX_SCALE`.
    pub fn from_mantissa(mantissa: i128, scale: u8) -> Self {
        debug_assert!(scale <= MAX_SCALE, "scale {scale} exceeds MAX_SCALE");
        Decimal { mantissa, scale }
    }

    /// Construct from an integer value (scale 0).
    pub fn from_int(v: i64) -> Self {
        Decimal {
            mantissa: v as i128,
            scale: 0,
        }
    }

    /// Construct a scale-2 decimal from cents, the TPC-H money representation.
    pub fn from_cents(cents: i64) -> Self {
        Decimal {
            mantissa: cents as i128,
            scale: 2,
        }
    }

    /// Raw mantissa.
    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    /// Fractional-digit count.
    pub fn scale(&self) -> u8 {
        self.scale
    }

    /// Lossy conversion to `f64` (used only for AVG reporting and display).
    pub fn to_f64(&self) -> f64 {
        self.mantissa as f64 / POW10[self.scale as usize] as f64
    }

    /// Rescale to `new_scale`, rounding half-away-from-zero when reducing.
    pub fn rescale(&self, new_scale: u8) -> Result<Decimal> {
        debug_assert!(new_scale <= MAX_SCALE);
        match new_scale.cmp(&self.scale) {
            Ordering::Equal => Ok(*self),
            Ordering::Greater => {
                let factor = POW10[(new_scale - self.scale) as usize];
                let mantissa = self
                    .mantissa
                    .checked_mul(factor)
                    .ok_or_else(|| DbError::Overflow(format!("rescale {self}")))?;
                Ok(Decimal {
                    mantissa,
                    scale: new_scale,
                })
            }
            Ordering::Less => {
                let factor = POW10[(self.scale - new_scale) as usize];
                let (q, r) = (self.mantissa / factor, self.mantissa % factor);
                let mantissa = if r.abs() * 2 >= factor {
                    q + self.mantissa.signum()
                } else {
                    q
                };
                Ok(Decimal {
                    mantissa,
                    scale: new_scale,
                })
            }
        }
    }

    /// Checked addition; operands are aligned to the larger scale.
    pub fn checked_add(&self, other: &Decimal) -> Result<Decimal> {
        let scale = self.scale.max(other.scale);
        let a = self.rescale(scale)?;
        let b = other.rescale(scale)?;
        let mantissa = a
            .mantissa
            .checked_add(b.mantissa)
            .ok_or_else(|| DbError::Overflow(format!("{self} + {other}")))?;
        Ok(Decimal { mantissa, scale })
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Decimal) -> Result<Decimal> {
        self.checked_add(&other.negate())
    }

    /// Checked multiplication; result scale is the sum of scales, clamped to
    /// [`MAX_SCALE`] with rounding.
    pub fn checked_mul(&self, other: &Decimal) -> Result<Decimal> {
        let mantissa = self
            .mantissa
            .checked_mul(other.mantissa)
            .ok_or_else(|| DbError::Overflow(format!("{self} * {other}")))?;
        let scale = self.scale + other.scale;
        let out = Decimal {
            mantissa,
            scale: scale.min(MAX_SCALE),
        };
        if scale > MAX_SCALE {
            Decimal {
                mantissa,
                scale: MAX_SCALE,
            }
            .rescale(MAX_SCALE)?; // overflow check path
            let factor = POW10[(scale - MAX_SCALE) as usize];
            let (q, r) = (mantissa / factor, mantissa % factor);
            let m = if r.abs() * 2 >= factor {
                q + mantissa.signum()
            } else {
                q
            };
            Ok(Decimal {
                mantissa: m,
                scale: MAX_SCALE,
            })
        } else {
            Ok(out)
        }
    }

    /// Checked division at [`MAX_SCALE`] precision, rounding half-away-from-zero.
    pub fn checked_div(&self, other: &Decimal) -> Result<Decimal> {
        if other.mantissa == 0 {
            return Err(DbError::DivideByZero);
        }
        // Numerator scaled so the quotient lands at MAX_SCALE.
        let shift = MAX_SCALE + other.scale - self.scale.min(MAX_SCALE + other.scale);
        let num = self
            .mantissa
            .checked_mul(POW10[shift as usize])
            .ok_or_else(|| DbError::Overflow(format!("{self} / {other}")))?;
        let den = other.mantissa;
        let (q, r) = (num / den, num % den);
        let m = if r.abs() * 2 >= den.abs() {
            q + (num.signum() * den.signum())
        } else {
            q
        };
        Ok(Decimal {
            mantissa: m,
            scale: MAX_SCALE,
        })
    }

    /// Negation.
    pub fn negate(&self) -> Decimal {
        Decimal {
            mantissa: -self.mantissa,
            scale: self.scale,
        }
    }

    /// Parse from a string such as `"-12.34"`.
    pub fn parse(s: &str) -> Result<Decimal> {
        let s = s.trim();
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(DbError::Parse(format!("empty decimal: {s:?}")));
        }
        let (int_part, frac_part) = match body.split_once('.') {
            Some((i, f)) => (i, f),
            None => (body, ""),
        };
        if frac_part.len() > MAX_SCALE as usize {
            return Err(DbError::Parse(format!("too many fractional digits: {s:?}")));
        }
        let digits: String = [int_part, frac_part].concat();
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(DbError::Parse(format!("bad decimal: {s:?}")));
        }
        let mantissa: i128 = digits
            .parse()
            .map_err(|_| DbError::Parse(format!("decimal out of range: {s:?}")))?;
        Ok(Decimal {
            mantissa: if neg { -mantissa } else { mantissa },
            scale: frac_part.len() as u8,
        })
    }
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Decimal {}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare on a common scale; i128 gives ample headroom (values are
        // bounded by table data, scales by MAX_SCALE).
        let scale = self.scale.max(other.scale);
        let a = self.mantissa * POW10[(scale - self.scale) as usize];
        let b = other.mantissa * POW10[(scale - other.scale) as usize];
        a.cmp(&b)
    }
}

impl std::hash::Hash for Decimal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the canonical (trailing-zero-free) representation so that
        // equal values hash equally regardless of scale.
        let (mut m, mut s) = (self.mantissa, self.scale);
        while s > 0 && m % 10 == 0 {
            m /= 10;
            s -= 1;
        }
        m.hash(state);
        s.hash(state);
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            let mantissa = self.mantissa;
            return write!(f, "{mantissa}");
        }
        let sign = if self.mantissa < 0 { "-" } else { "" };
        let abs = self.mantissa.unsigned_abs();
        let factor = POW10[self.scale as usize] as u128;
        write!(
            f,
            "{sign}{}.{:0width$}",
            abs / factor,
            abs % factor,
            width = self.scale as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.00", "12.34", "-12.34", "1000000.99", "0.5", "7"] {
            assert_eq!(d(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Decimal::parse("").is_err());
        assert!(Decimal::parse("abc").is_err());
        assert!(Decimal::parse("1.2.3").is_err());
        assert!(Decimal::parse("1.123456789").is_err()); // > MAX_SCALE digits
        assert!(Decimal::parse("-").is_err());
    }

    #[test]
    fn add_aligns_scales() {
        assert_eq!(d("1.5").checked_add(&d("2.25")).unwrap(), d("3.75"));
        assert_eq!(d("-1.5").checked_add(&d("1.5")).unwrap(), d("0"));
    }

    #[test]
    fn q1_charge_expression() {
        // extendedprice * (1 - discount) * (1 + tax)
        let price = d("1000.00");
        let one = Decimal::from_int(1);
        let disc = d("0.05");
        let tax = d("0.08");
        let charge = price
            .checked_mul(&one.checked_sub(&disc).unwrap())
            .unwrap()
            .checked_mul(&one.checked_add(&tax).unwrap())
            .unwrap();
        assert_eq!(charge, d("1026.00"));
    }

    #[test]
    fn mul_clamps_scale_with_rounding() {
        // 0.12345678 * 0.1 = 0.012345678 -> rounds to 8 digits
        let a = Decimal::from_mantissa(12_345_678, 8);
        let b = d("0.1");
        let p = a.checked_mul(&b).unwrap();
        assert_eq!(p.scale(), MAX_SCALE);
        assert_eq!(p.mantissa(), 1_234_568);
    }

    #[test]
    fn div_basic_and_by_zero() {
        assert_eq!(
            d("1").checked_div(&d("4")).unwrap().to_string(),
            "0.25000000"
        );
        assert_eq!(
            d("10").checked_div(&d("3")).unwrap().mantissa(),
            333333333 // 3.33333333 at scale 8
        );
        assert_eq!(d("1").checked_div(&d("0")), Err(DbError::DivideByZero));
    }

    #[test]
    fn ordering_is_scale_independent() {
        assert_eq!(d("1.50"), d("1.5"));
        assert!(d("1.49") < d("1.5"));
        assert!(d("-2") < d("-1.99"));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Decimal| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&d("1.50")), h(&d("1.5")));
        assert_eq!(h(&d("0.00")), h(&d("0")));
    }

    #[test]
    fn rescale_rounds_half_away_from_zero() {
        assert_eq!(d("1.25").rescale(1).unwrap(), d("1.3"));
        assert_eq!(d("-1.25").rescale(1).unwrap(), d("-1.3"));
        assert_eq!(d("1.24").rescale(1).unwrap(), d("1.2"));
    }

    #[test]
    fn add_commutes_and_sub_inverts() {
        let mut rng = crate::Rng::seed_from_u64(0xDEC1);
        for _ in 0..512 {
            let a = rng.gen_range(-1_000_000_000i64..1_000_000_000);
            let b = rng.gen_range(-1_000_000_000i64..1_000_000_000);
            let x = Decimal::from_cents(a);
            let y = Decimal::from_cents(b);
            assert_eq!(
                x.checked_add(&y).unwrap(),
                y.checked_add(&x).unwrap(),
                "a={a} b={b}"
            );
            let z = x.checked_add(&y).unwrap().checked_sub(&y).unwrap();
            assert_eq!(z, x, "a={a} b={b}");
        }
    }

    #[test]
    fn mul_matches_f64() {
        let mut rng = crate::Rng::seed_from_u64(0xDEC2);
        for _ in 0..512 {
            let a = rng.gen_range(-100_000i64..100_000);
            let b = rng.gen_range(-100_000i64..100_000);
            let p = Decimal::from_cents(a)
                .checked_mul(&Decimal::from_cents(b))
                .unwrap();
            let expect = (a as f64 / 100.0) * (b as f64 / 100.0);
            assert!((p.to_f64() - expect).abs() < 1e-6, "a={a} b={b}");
        }
    }

    #[test]
    fn ordering_matches_cents() {
        let mut rng = crate::Rng::seed_from_u64(0xDEC3);
        for _ in 0..512 {
            let a = rng.gen_range(-10_000_000i64..10_000_000);
            let b = rng.gen_range(-10_000_000i64..10_000_000);
            assert_eq!(
                Decimal::from_cents(a).cmp(&Decimal::from_cents(b)),
                a.cmp(&b)
            );
        }
    }

    #[test]
    fn display_parse_round_trip_random_mantissas() {
        let mut rng = crate::Rng::seed_from_u64(0xDEC4);
        for _ in 0..512 {
            let m = rng.gen_range(-1_000_000_000_000i64..1_000_000_000_000);
            let s = rng.gen_range(0u32..=4) as u8;
            let x = Decimal::from_mantissa(m as i128, s);
            let back = Decimal::parse(&x.to_string()).unwrap();
            assert_eq!(back, x, "m={m} s={s}");
        }
    }
}
