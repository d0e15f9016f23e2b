//! The ExaMon wire payload: `<value>;<timestamp>` (paper Table II).

use std::fmt;
use std::str::FromStr;

use cimone_soc::units::SimTime;

/// One sample as carried on the MQTT transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payload {
    /// The metric value.
    pub value: f64,
    /// The sample timestamp.
    pub timestamp: SimTime,
}

impl Payload {
    /// Creates a payload.
    pub fn new(value: f64, timestamp: SimTime) -> Self {
        Payload { value, timestamp }
    }

    /// Encodes to the `<value>;<timestamp>` wire form. Timestamps are in
    /// seconds with microsecond resolution, as ExaMon publishes epoch
    /// seconds with fractional part.
    pub fn encode(&self) -> Vec<u8> {
        self.to_string().into_bytes()
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// Fails on anything but `float;float-seconds`.
    pub fn decode(raw: &[u8]) -> Result<Self, PayloadError> {
        let text = std::str::from_utf8(raw).map_err(|_| PayloadError::NotUtf8)?;
        text.parse()
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{};{:.6}", self.value, self.timestamp.as_secs_f64())
    }
}

/// A malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// Payload bytes are not UTF-8.
    NotUtf8,
    /// Payload text is not `value;timestamp`.
    BadFormat,
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::NotUtf8 => write!(f, "payload is not valid UTF-8"),
            PayloadError::BadFormat => write!(f, "payload is not in value;timestamp form"),
        }
    }
}

impl std::error::Error for PayloadError {}

impl FromStr for Payload {
    type Err = PayloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (value, ts) = s.split_once(';').ok_or(PayloadError::BadFormat)?;
        let value: f64 = value.trim().parse().map_err(|_| PayloadError::BadFormat)?;
        let secs: f64 = ts.trim().parse().map_err(|_| PayloadError::BadFormat)?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(PayloadError::BadFormat);
        }
        Ok(Payload {
            value,
            timestamp: SimTime::from_micros((secs * 1e6).round() as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let p = Payload::new(42.5, SimTime::from_millis(1_500));
        let wire = p.encode();
        assert_eq!(std::str::from_utf8(&wire).unwrap(), "42.5;1.500000");
        let back = Payload::decode(&wire).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn decode_tolerates_whitespace() {
        let p: Payload = " 3.25 ; 10.0 ".parse().unwrap();
        assert_eq!(p.value, 3.25);
        assert_eq!(p.timestamp, SimTime::from_secs(10));
    }

    #[test]
    fn malformed_payloads_error() {
        assert_eq!("42".parse::<Payload>(), Err(PayloadError::BadFormat));
        assert_eq!("a;b".parse::<Payload>(), Err(PayloadError::BadFormat));
        assert_eq!("1;-5".parse::<Payload>(), Err(PayloadError::BadFormat));
        assert_eq!(Payload::decode(&[0xff, 0xfe]), Err(PayloadError::NotUtf8));
    }
}
