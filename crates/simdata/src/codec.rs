//! Compact binary serialisation of simulated datasets.
//!
//! Multi-million order datasets need a compact, streamable format.
//!
//! ## `DEEPSD-DATA2` — chunked container format
//!
//! The city-scale format: length-prefixed, per-chunk FNV-1a-checksummed
//! chunks (the same checksum the checkpoint format uses), one chunk per
//! area, so readers and writers never hold more than one area's data plus
//! the small shared header. [`ChunkWriter`] streams a dataset out area by
//! area; [`ChunkReader`] scans the chunk table on open and then serves
//! random-access per-area reads — which is what lets multi-epoch training
//! revisit areas without materializing the city.
//! ```text
//! magic   "DEEPSD-DATA2"    12 bytes
//! header  chunk:            u32 len | payload | u64 fnv1a64(payload)
//!   payload = city: u64 seed | u16 n_areas + n_areas x
//!             (u16 gx, u16 gy, u8 archetype,
//!              f64 demand_scale, f64 supply_tightness,
//!              7 x f64 weekday_bias)   (fixed width — not JSON, so the
//!             header stays ~80 B/area and a 10k-area open never spikes
//!             multi-MB transient buffers; f64s as raw bits, exact)
//!           | u16 n_days
//!           | u8 flags               (bit 0: area chunks carry traffic)
//!           | u32 n_edges + n_edges x (u16 a, u16 b)   adjacency, a < b
//!           | weather n_days*1440 x (u8 kind, f32 temp, f32 pm25)
//! areas   one chunk per area, in id order: u32 len | payload | u64 fnv
//!   payload = u16 area
//!           | [traffic n_days*1440 x 4 x u16]          (iff flags bit 0)
//!           | u32 count + count x
//!             (u16 day, u16 ts, u64 pid, u16 loc_start, u16 loc_dest, u8 valid)
//! ```
//!
//! Every declared count is validated against the bytes actually present
//! before any allocation sized from it, so hostile headers cannot force
//! huge allocations (they fail with [`CodecError::Truncated`] instead).

use crate::city::{Archetype, Area, City, CityConfig};
use crate::dataset::SimDataset;
use crate::stream::{AreaBlock, AreaSource, SourceError};
use crate::types::{Order, TrafficObs, WeatherObs, WeatherType, MINUTES_PER_DAY};
use std::io::{Read, Seek, SeekFrom, Write};

const MAGIC2: &[u8; 12] = b"DEEPSD-DATA2";

/// Flag bit: area chunks carry a traffic stream.
const FLAG_TRAFFIC: u8 = 0b0000_0001;

/// Bytes per serialised weather observation.
const WEATHER_BYTES: usize = 9;
/// Bytes per serialised traffic observation.
const TRAFFIC_BYTES: usize = 8;
/// Bytes per serialised order record.
const ORDER_BYTES: usize = 17;
/// Bytes of per-chunk framing: u32 length prefix + u64 checksum.
const CHUNK_FRAMING: u64 = 12;

/// 64-bit FNV-1a over a byte slice: the integrity (not security)
/// checksum of every `DEEPSD-DATA2` chunk and of `DEEPSD-CKPT2` model
/// checkpoints (`deepsd::checkpoint`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors produced when decoding a dataset blob or container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The magic header did not match.
    BadMagic,
    /// The buffer ended prematurely or held inconsistent lengths.
    Truncated,
    /// A field held an out-of-range value.
    InvalidField(&'static str),
    /// A chunk's FNV checksum did not match its payload.
    ChecksumMismatch,
    /// An underlying I/O operation failed (file readers only).
    Io(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a DEEPSD-DATA2 dataset"),
            CodecError::Truncated => write!(f, "dataset blob truncated"),
            CodecError::InvalidField(name) => write!(f, "invalid field: {name}"),
            CodecError::ChecksumMismatch => write!(f, "chunk checksum mismatch"),
            CodecError::Io(e) => write!(f, "dataset i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> CodecError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e.to_string())
        }
    }
}

/// Encodes a materialized dataset into a `DEEPSD-DATA2` chunked
/// container held in memory. Streaming producers should drive a
/// [`ChunkWriter`] directly instead.
pub fn encode_dataset_v2(ds: &SimDataset) -> Vec<u8> {
    let mut w = ChunkWriter::new(
        Vec::new(),
        &ds.city,
        ds.n_days,
        SimDataset::weather(ds),
        true,
    )
    .expect("in-memory writes cannot fail");
    for area in 0..ds.n_areas() as u16 {
        let block = AreaBlock {
            area,
            orders: ds.orders(area).to_vec(),
            traffic: ds.area_traffic(area).to_vec(),
        };
        w.write_area(&block).expect("in-memory writes cannot fail");
    }
    w.finish().expect("in-memory writes cannot fail")
}

/// I/O statistics of a [`ChunkReader`]: fuel for the
/// `data_chunks_read_total` / `data_bytes_read_total` telemetry
/// counters. Both are deterministic functions of the access pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks decoded (header chunk included).
    pub chunks_read: u64,
    /// Payload + framing bytes decoded.
    pub bytes_read: u64,
}

/// Streams a `DEEPSD-DATA2` container out, one area chunk at a time.
///
/// Peak writer memory is one area's serialised payload, independent of
/// the number of areas.
pub struct ChunkWriter<W: Write> {
    w: W,
    n_days: u16,
    n_areas: u16,
    next_area: u16,
    include_traffic: bool,
}

impl<W: Write> ChunkWriter<W> {
    /// Writes the magic and the checksummed header chunk (city layout,
    /// adjacency topology, weather).
    ///
    /// # Panics
    /// Panics if `n_days == 0`, the weather stream length disagrees with
    /// `n_days`, or the city is empty.
    pub fn new(
        mut w: W,
        city: &City,
        n_days: u16,
        weather: &[WeatherObs],
        include_traffic: bool,
    ) -> std::io::Result<ChunkWriter<W>> {
        assert!(n_days > 0, "dataset needs at least one day");
        assert!(city.n_areas() > 0, "city has no areas");
        let slots = MINUTES_PER_DAY as usize;
        assert_eq!(weather.len(), n_days as usize * slots, "weather length");
        let n_areas = city.n_areas() as u16;

        w.write_all(MAGIC2)?;
        let edges = city.adjacency_edges();
        // Exact capacity: the header must never trigger growth reallocs —
        // at 10k areas a doubling Vec would transiently double the
        // process peak RSS the scale sweep measures.
        let mut payload = Vec::with_capacity(
            10 + city.areas.len() * CITY_AREA_BYTES
                + 7
                + edges.len() * 4
                + weather.len() * WEATHER_BYTES,
        );
        put_city(&mut payload, city);
        payload.extend_from_slice(&n_days.to_le_bytes());
        payload.push(if include_traffic { FLAG_TRAFFIC } else { 0 });
        payload.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for (a, b) in edges {
            payload.extend_from_slice(&a.to_le_bytes());
            payload.extend_from_slice(&b.to_le_bytes());
        }
        for obs in weather {
            payload.push(obs.kind.id() as u8);
            payload.extend_from_slice(&obs.temperature.to_le_bytes());
            payload.extend_from_slice(&obs.pm25.to_le_bytes());
        }
        write_chunk(&mut w, &payload)?;
        Ok(ChunkWriter {
            w,
            n_days,
            n_areas,
            next_area: 0,
            include_traffic,
        })
    }

    /// Appends one area's chunk. Areas must arrive in id order.
    ///
    /// # Panics
    /// Panics on out-of-order areas or a traffic stream whose length
    /// disagrees with the header (present when traffic was enabled,
    /// `n_days * 1440` observations).
    pub fn write_area(&mut self, block: &AreaBlock) -> std::io::Result<()> {
        assert_eq!(
            block.area, self.next_area,
            "area chunks must be written in id order"
        );
        let slots = MINUTES_PER_DAY as usize;
        let expected_traffic = if self.include_traffic {
            self.n_days as usize * slots
        } else {
            0
        };
        assert_eq!(
            block.traffic.len(),
            expected_traffic,
            "traffic stream length for area {}",
            block.area
        );
        let mut payload = Vec::with_capacity(
            2 + 4 + block.traffic.len() * TRAFFIC_BYTES + block.orders.len() * ORDER_BYTES,
        );
        payload.extend_from_slice(&block.area.to_le_bytes());
        for t in &block.traffic {
            for level in t.levels {
                payload.extend_from_slice(&level.to_le_bytes());
            }
        }
        payload.extend_from_slice(&(block.orders.len() as u32).to_le_bytes());
        for o in &block.orders {
            payload.extend_from_slice(&o.day.to_le_bytes());
            payload.extend_from_slice(&o.ts.to_le_bytes());
            payload.extend_from_slice(&o.pid.to_le_bytes());
            payload.extend_from_slice(&o.loc_start.to_le_bytes());
            payload.extend_from_slice(&o.loc_dest.to_le_bytes());
            payload.push(u8::from(o.valid));
        }
        write_chunk(&mut self.w, &payload)?;
        self.next_area += 1;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    /// Panics if not every area chunk was written.
    pub fn finish(mut self) -> std::io::Result<W> {
        assert_eq!(
            self.next_area, self.n_areas,
            "container is missing area chunks"
        );
        self.w.flush()?;
        Ok(self.w)
    }
}

fn write_chunk<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "chunk exceeds 4 GiB")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64(payload).to_le_bytes())?;
    Ok(())
}

/// Random-access streaming reader over a `DEEPSD-DATA2` container.
///
/// `open` reads and verifies the header chunk, then scans the chunk
/// table (length prefixes only — no payloads) to build a per-area offset
/// index. [`ChunkReader::read_area`] then decodes single chunks on
/// demand, so resident memory is the shared header plus one area,
/// independent of city size. Chunk checksums are verified on every read.
pub struct ChunkReader<R: Read + Seek> {
    r: R,
    city: City,
    n_days: u16,
    flags: u8,
    weather: Vec<WeatherObs>,
    edges: Vec<(u16, u16)>,
    offsets: Vec<u64>,
    total: u64,
    stats: ReadStats,
    /// Reused per-read payload buffer (see [`read_chunk_into`]).
    scratch: Vec<u8>,
}

impl<R: Read + Seek> ChunkReader<R> {
    /// Opens a container: verifies magic and header chunk, scans the
    /// area chunk table.
    pub fn open(mut r: R) -> Result<ChunkReader<R>, CodecError> {
        let total = r.seek(SeekFrom::End(0))?;
        r.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 12];
        if total < MAGIC2.len() as u64 {
            return Err(CodecError::BadMagic);
        }
        r.read_exact(&mut magic)?;
        if &magic != MAGIC2 {
            return Err(CodecError::BadMagic);
        }

        let mut stats = ReadStats::default();
        let mut header = Vec::new();
        let after_header =
            read_chunk_into(&mut r, MAGIC2.len() as u64, total, &mut stats, &mut header)?;
        let mut buf: &[u8] = &header;

        let city = parse_city(&mut buf)?;
        // `parse_city` guarantees 1..=u16::MAX areas.
        let n_areas = city.n_areas();
        let n_days = read_u16(&mut buf)?;
        if n_days == 0 {
            return Err(CodecError::InvalidField("n_days"));
        }
        let flags = read_u8(&mut buf)?;
        if flags & !FLAG_TRAFFIC != 0 {
            return Err(CodecError::InvalidField("flags"));
        }
        let n_edges = read_u32(&mut buf)? as usize;
        if buf.len() < n_edges * 4 {
            return Err(CodecError::Truncated);
        }
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let a = read_u16(&mut buf)?;
            let b = read_u16(&mut buf)?;
            if a >= b || b as usize >= n_areas {
                return Err(CodecError::InvalidField("adjacency edge"));
            }
            edges.push((a, b));
        }
        let weather = parse_weather(&mut buf, n_days)?;
        if !buf.is_empty() {
            return Err(CodecError::InvalidField("header trailing bytes"));
        }

        // Scan the chunk table: read each length prefix, skip payloads.
        let mut offsets = Vec::with_capacity(n_areas);
        let mut pos = after_header;
        let mut len_bytes = [0u8; 4];
        for _ in 0..n_areas {
            if pos + CHUNK_FRAMING > total {
                return Err(CodecError::Truncated);
            }
            offsets.push(pos);
            r.seek(SeekFrom::Start(pos))?;
            r.read_exact(&mut len_bytes)?;
            let len = u64::from(u32::from_le_bytes(len_bytes));
            pos = pos
                .checked_add(CHUNK_FRAMING + len)
                .ok_or(CodecError::Truncated)?;
            if pos > total {
                return Err(CodecError::Truncated);
            }
        }
        if pos != total {
            return Err(CodecError::InvalidField("trailing bytes"));
        }

        Ok(ChunkReader {
            r,
            city,
            n_days,
            flags,
            weather,
            edges,
            offsets,
            total,
            stats,
            scratch: Vec::new(),
        })
    }

    /// The instantiated city layout.
    pub fn city(&self) -> &City {
        &self.city
    }

    /// Number of simulated days.
    pub fn n_days(&self) -> u16 {
        self.n_days
    }

    /// City-wide weather stream, `day * 1440 + minute`.
    pub fn weather(&self) -> &[WeatherObs] {
        &self.weather
    }

    /// Undirected area adjacency edges (`a < b`), from the header.
    pub fn edges(&self) -> &[(u16, u16)] {
        &self.edges
    }

    /// Whether area chunks carry traffic streams.
    pub fn has_traffic(&self) -> bool {
        self.flags & FLAG_TRAFFIC != 0
    }

    /// Cumulative read statistics.
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Decodes one area's chunk, verifying its checksum.
    pub fn read_area(&mut self, area: u16) -> Result<AreaBlock, CodecError> {
        let off = *self
            .offsets
            .get(area as usize)
            .ok_or(CodecError::InvalidField("area id"))?;
        read_chunk_into(
            &mut self.r,
            off,
            self.total,
            &mut self.stats,
            &mut self.scratch,
        )?;
        let mut buf: &[u8] = &self.scratch;
        let n_areas = self.city.n_areas();
        let stored_area = read_u16(&mut buf)?;
        if stored_area != area {
            return Err(CodecError::InvalidField("area id"));
        }
        let traffic = if self.has_traffic() {
            let n = self.n_days as usize * MINUTES_PER_DAY as usize;
            if buf.len() < n * TRAFFIC_BYTES {
                return Err(CodecError::Truncated);
            }
            let mut traffic = Vec::with_capacity(n);
            for _ in 0..n {
                let mut levels = [0u16; 4];
                for l in levels.iter_mut() {
                    *l = read_u16(&mut buf)?;
                }
                traffic.push(TrafficObs { levels });
            }
            traffic
        } else {
            Vec::new()
        };
        let count = read_u32(&mut buf)? as usize;
        let orders = parse_orders(&mut buf, count, area, self.n_days, n_areas)?;
        if !buf.is_empty() {
            return Err(CodecError::InvalidField("chunk trailing bytes"));
        }
        Ok(AreaBlock {
            area,
            orders,
            traffic,
        })
    }
}

impl<R: Read + Seek> AreaSource for ChunkReader<R> {
    fn city(&self) -> &City {
        &self.city
    }

    fn n_days(&self) -> u16 {
        self.n_days
    }

    fn weather(&self) -> &[WeatherObs] {
        &self.weather
    }

    fn has_traffic(&self) -> bool {
        ChunkReader::has_traffic(self)
    }

    fn area_block(&mut self, area: u16) -> Result<AreaBlock, SourceError> {
        self.read_area(area).map_err(|e| SourceError(e.to_string()))
    }

    fn read_stats(&self) -> ReadStats {
        self.stats
    }
}

/// Reads and checksum-verifies the chunk starting at `off` into a
/// caller-owned scratch buffer, returning the offset one past the chunk.
/// Hot readers (multi-epoch training re-reads every area chunk each
/// window) reuse one allocation instead of churning a fresh ~50 kB
/// payload per read. The declared length is validated against `total`
/// before the buffer is grown.
fn read_chunk_into<R: Read + Seek>(
    r: &mut R,
    off: u64,
    total: u64,
    stats: &mut ReadStats,
    payload: &mut Vec<u8>,
) -> Result<u64, CodecError> {
    if off + CHUNK_FRAMING > total {
        return Err(CodecError::Truncated);
    }
    r.seek(SeekFrom::Start(off))?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from(u32::from_le_bytes(len_bytes));
    let end = off
        .checked_add(CHUNK_FRAMING + len)
        .ok_or(CodecError::Truncated)?;
    if end > total {
        return Err(CodecError::Truncated);
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    if fnv1a64(payload) != u64::from_le_bytes(sum_bytes) {
        return Err(CodecError::ChecksumMismatch);
    }
    stats.chunks_read += 1;
    stats.bytes_read += CHUNK_FRAMING + len;
    Ok(end)
}

/// Fixed width of one area in the binary city encoding: grid (2×u16),
/// archetype (u8), demand_scale + supply_tightness + 7 weekday biases
/// (9×f64 as raw bits).
const CITY_AREA_BYTES: usize = 2 + 2 + 1 + 9 * 8;

/// Writes the fixed-width binary city encoding (see the module docs).
/// Area ids are implicit — they are the write order — so they are
/// neither stored nor trusted from the wire.
fn put_city(payload: &mut Vec<u8>, city: &City) {
    payload.extend_from_slice(&city.config.seed.to_le_bytes());
    payload.extend_from_slice(&(city.n_areas() as u16).to_le_bytes());
    for (i, a) in city.areas.iter().enumerate() {
        debug_assert_eq!(a.id as usize, i, "area ids are their indices");
        payload.extend_from_slice(&a.grid.0.to_le_bytes());
        payload.extend_from_slice(&a.grid.1.to_le_bytes());
        let archetype = Archetype::ALL
            .iter()
            .position(|x| *x == a.archetype)
            .expect("archetype is in Archetype::ALL") as u8;
        payload.push(archetype);
        payload.extend_from_slice(&a.demand_scale.to_bits().to_le_bytes());
        payload.extend_from_slice(&a.supply_tightness.to_bits().to_le_bytes());
        for b in a.weekday_bias {
            payload.extend_from_slice(&b.to_bits().to_le_bytes());
        }
    }
}

/// Parses the binary city encoding. Bounds-checked up front from the
/// declared area count — at most `u16::MAX * CITY_AREA_BYTES` (~5 MB)
/// can ever be demanded, and only after the buffer is known to hold it.
fn parse_city(buf: &mut &[u8]) -> Result<City, CodecError> {
    let seed = read_u64(buf)?;
    let n_areas = read_u16(buf)?;
    if n_areas == 0 {
        return Err(CodecError::InvalidField("n_areas"));
    }
    if buf.len() < n_areas as usize * CITY_AREA_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut areas = Vec::with_capacity(n_areas as usize);
    for id in 0..n_areas {
        let grid = (read_u16(buf)?, read_u16(buf)?);
        let archetype = *Archetype::ALL
            .get(read_u8(buf)? as usize)
            .ok_or(CodecError::InvalidField("archetype"))?;
        let demand_scale = f64::from_bits(read_u64(buf)?);
        let supply_tightness = f64::from_bits(read_u64(buf)?);
        let mut weekday_bias = [0f64; 7];
        for b in weekday_bias.iter_mut() {
            *b = f64::from_bits(read_u64(buf)?);
        }
        areas.push(Area {
            id,
            grid,
            archetype,
            demand_scale,
            supply_tightness,
            weekday_bias,
        });
    }
    Ok(City {
        config: CityConfig { n_areas, seed },
        areas,
    })
}

fn parse_weather(buf: &mut &[u8], n_days: u16) -> Result<Vec<WeatherObs>, CodecError> {
    let n = n_days as usize * MINUTES_PER_DAY as usize;
    if buf.len() < n * WEATHER_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut weather = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = read_u8(buf)?;
        if kind >= 10 {
            return Err(CodecError::InvalidField("weather kind"));
        }
        weather.push(WeatherObs {
            kind: WeatherType::from_id(kind as usize),
            temperature: read_f32(buf)?,
            pm25: read_f32(buf)?,
        });
    }
    Ok(weather)
}

/// Parses `count` order records, validating time and area fields.
fn parse_orders(
    buf: &mut &[u8],
    count: usize,
    area: u16,
    n_days: u16,
    n_areas: usize,
) -> Result<Vec<Order>, CodecError> {
    // Capacity is only trusted after the byte-level bound holds, so a
    // hostile count cannot force an allocation larger than the blob.
    match count.checked_mul(ORDER_BYTES) {
        Some(need) if buf.len() >= need => {}
        _ => return Err(CodecError::Truncated),
    }
    let mut orders = Vec::with_capacity(count);
    for _ in 0..count {
        let day = read_u16(buf)?;
        let ts = read_u16(buf)?;
        let pid = read_u64(buf)?;
        let loc_start = read_u16(buf)?;
        let loc_dest = read_u16(buf)?;
        let valid = match read_u8(buf)? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::InvalidField("valid flag")),
        };
        if day >= n_days || ts as u32 >= MINUTES_PER_DAY {
            return Err(CodecError::InvalidField("order time"));
        }
        if loc_start != area || loc_dest as usize >= n_areas {
            return Err(CodecError::InvalidField("order area"));
        }
        orders.push(Order {
            day,
            ts,
            pid,
            loc_start,
            loc_dest,
            valid,
        });
    }
    Ok(orders)
}

/// Splits `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn read_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    take::<1>(buf).map(|[b]| b)
}

fn read_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    take(buf).map(u16::from_le_bytes)
}

fn read_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    take(buf).map(u32::from_le_bytes)
}

fn read_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    take(buf).map(u64::from_le_bytes)
}

fn read_f32(buf: &mut &[u8]) -> Result<f32, CodecError> {
    take(buf).map(f32::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimConfig;
    use crate::stream::StreamGenerator;
    use std::io::Cursor;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Same vectors the checkpoint format pins (DESIGN.md §4.2).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// Opens a container and decodes every area chunk in id order.
    fn read_all(blob: &[u8]) -> Result<Vec<AreaBlock>, CodecError> {
        let mut r = ChunkReader::open(Cursor::new(blob))?;
        (0..r.city().n_areas() as u16)
            .map(|area| r.read_area(area))
            .collect()
    }

    #[test]
    fn chunked_roundtrip_is_byte_identical() {
        let ds = SimDataset::generate(&SimConfig::smoke(95));
        let blob = encode_dataset_v2(&ds);
        let r = ChunkReader::open(Cursor::new(&blob[..])).expect("open");
        assert_eq!(r.n_days(), ds.n_days);
        assert_eq!(r.weather(), SimDataset::weather(&ds));
        let back = read_all(&blob).expect("v2 roundtrip");
        for (area, block) in back.iter().enumerate() {
            assert_eq!(block.orders, ds.orders(area as u16));
            assert_eq!(block.traffic, ds.area_traffic(area as u16));
        }
        // Re-encoding the decoded blocks reproduces the container byte
        // for byte.
        let mut w =
            ChunkWriter::new(Vec::new(), r.city(), r.n_days(), r.weather(), true).expect("header");
        for block in &back {
            w.write_area(block).expect("chunk");
        }
        assert_eq!(w.finish().expect("finish"), blob);
    }

    #[test]
    fn chunk_reader_serves_random_access_with_stats() {
        let ds = SimDataset::generate(&SimConfig::smoke(96));
        let blob = encode_dataset_v2(&ds);
        let mut r = ChunkReader::open(Cursor::new(&blob[..])).expect("open");
        assert!(r.has_traffic());
        assert_eq!(r.n_days(), ds.n_days);
        assert_eq!(r.edges(), &ds.city.adjacency_edges()[..]);
        // Out of order and repeated reads both work.
        for &area in &[3u16, 0, 5, 3] {
            let block = r.read_area(area).expect("read");
            assert_eq!(block.orders, ds.orders(area));
            assert_eq!(block.traffic, ds.area_traffic(area));
        }
        let stats = r.stats();
        assert_eq!(stats.chunks_read, 1 + 4); // header + 4 reads
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn chunk_writer_streams_from_generator() {
        let config = SimConfig::smoke(97);
        let ds = SimDataset::generate(&config);
        let mut sg = StreamGenerator::new(&config);
        let mut w = ChunkWriter::new(
            Vec::new(),
            AreaSource::city(&sg),
            sg.n_days(),
            sg.weather(),
            true,
        )
        .expect("header");
        for area in 0..sg.n_areas() as u16 {
            let block = sg.area_block(area).expect("generate");
            w.write_area(&block).expect("chunk");
        }
        let blob = w.finish().expect("finish");
        assert_eq!(blob, encode_dataset_v2(&ds));
    }

    #[test]
    fn containers_without_traffic_read_empty_streams() {
        let config = SimConfig::smoke(98);
        let mut sg = StreamGenerator::new(&config).without_traffic();
        let mut w = ChunkWriter::new(
            Vec::new(),
            AreaSource::city(&sg),
            sg.n_days(),
            sg.weather(),
            false,
        )
        .expect("header");
        for area in 0..sg.n_areas() as u16 {
            let block = sg.area_block(area).expect("generate");
            w.write_area(&block).expect("chunk");
        }
        let blob = w.finish().expect("finish");
        let mut r = ChunkReader::open(Cursor::new(&blob[..])).expect("open");
        assert!(!ChunkReader::has_traffic(&r));
        assert!(r.read_area(0).expect("read").traffic.is_empty());
        let blocks = read_all(&blob).expect("read all");
        assert!(blocks.iter().all(|b| b.traffic.is_empty()));
    }

    #[test]
    fn corrupt_chunks_fail_with_checksum_mismatch() {
        let ds = SimDataset::generate(&SimConfig::smoke(99));
        let mut blob = encode_dataset_v2(&ds).to_vec();
        // Flip a byte deep inside the last area chunk's payload.
        let n = blob.len();
        blob[n - 20] ^= 0xff;
        let mut r = ChunkReader::open(Cursor::new(&blob[..])).expect("open");
        let last = (ds.n_areas() - 1) as u16;
        assert_eq!(r.read_area(last).unwrap_err(), CodecError::ChecksumMismatch);
        // Earlier chunks are untouched and still verify.
        assert!(r.read_area(0).is_ok());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_all(b"NOPE....").unwrap_err();
        assert_eq!(err, CodecError::BadMagic);
        let err = match ChunkReader::open(Cursor::new(&b"DEEPSD-DATAX____"[..])) {
            Ok(_) => panic!("bogus magic accepted"),
            Err(e) => e,
        };
        assert_eq!(err, CodecError::BadMagic);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let ds = SimDataset::generate(&SimConfig::smoke(92));
        let blob = encode_dataset_v2(&ds);
        // Chop at several depths; every prefix must fail cleanly, never
        // panic.
        for cut in [0, 4, 13, 40, blob.len() / 2, blob.len() - 1] {
            let err = read_all(&blob[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadMagic),
                "cut {cut}: {err:?}"
            );
        }
    }

    /// Offset of the chunk holding area `area` (`None`: the header).
    fn chunk_offset(blob: &[u8], area: Option<u16>) -> usize {
        let mut off = MAGIC2.len();
        for _ in 0..area.map_or(0, |a| a + 1) {
            let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap());
            off += CHUNK_FRAMING as usize + len as usize;
        }
        off
    }

    /// Overwrites bytes inside the payload of the chunk at `off` and
    /// re-seals its checksum, so the change reaches the parser.
    fn patch_chunk(blob: &mut [u8], off: usize, at: usize, bytes: &[u8]) {
        let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
        let payload = off + 4..off + 4 + len;
        blob[payload.start + at..payload.start + at + bytes.len()].copy_from_slice(bytes);
        let sum = fnv1a64(&blob[payload.clone()]);
        blob[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// Fuzz-style hostile-header regression: declared counts far larger
    /// than the blob must fail with `Truncated` *before* any allocation
    /// sized from them (a 0xFFFF-day header would otherwise demand an
    /// ~850 MB weather vector up front). Each count is patched into a
    /// correctly checksummed chunk, so the parser, not the checksum,
    /// has to catch it.
    #[test]
    fn hostile_counts_fail_before_allocating() {
        let ds = SimDataset::generate(&SimConfig::smoke(90));
        let blob = encode_dataset_v2(&ds);
        let header = chunk_offset(&blob, None);

        // Overgrown n_days (drives the weather count).
        let mut evil = blob.clone();
        let n_days_at = 10 + ds.n_areas() * CITY_AREA_BYTES;
        patch_chunk(&mut evil, header, n_days_at, &[0xff, 0xff]);
        assert_eq!(read_all(&evil).unwrap_err(), CodecError::Truncated);

        // Overgrown edge count.
        let mut evil = blob.clone();
        patch_chunk(&mut evil, header, n_days_at + 3, &u32::MAX.to_le_bytes());
        assert_eq!(read_all(&evil).unwrap_err(), CodecError::Truncated);

        // Overgrown order count: the field sits after the area id and
        // the traffic stream.
        let mut evil = blob.clone();
        let area0 = chunk_offset(&blob, Some(0));
        let count_at = 2 + ds.n_days as usize * MINUTES_PER_DAY as usize * TRAFFIC_BYTES;
        patch_chunk(&mut evil, area0, count_at, &u32::MAX.to_le_bytes());
        let mut r = ChunkReader::open(Cursor::new(&evil[..])).expect("open");
        assert_eq!(r.read_area(0).unwrap_err(), CodecError::Truncated);

        // An overgrown chunk length must not out-allocate the file.
        let mut evil = blob.clone();
        evil[header..header + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_all(&evil).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn rejects_corrupted_valid_flag() {
        let ds = SimDataset::generate(&SimConfig::smoke(93));
        let mut blob = encode_dataset_v2(&ds);
        // The last area chunk ends with its last order's valid flag.
        let last = (ds.n_areas() - 1) as u16;
        let off = chunk_offset(&blob, Some(last));
        let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
        patch_chunk(&mut blob, off, len - 1, &[7]);
        let err = read_all(&blob).unwrap_err();
        assert_eq!(err, CodecError::InvalidField("valid flag"));
    }

    /// Opens `bytes` and reads every area it declares; every failure
    /// must be a typed error.
    fn open_and_read_all(bytes: &[u8]) {
        if let Ok(mut r) = ChunkReader::open(Cursor::new(bytes)) {
            let n = r.city().n_areas() as u16;
            for area in 0..n {
                let _ = r.read_area(area);
            }
            assert_eq!(
                r.read_area(n).unwrap_err(),
                CodecError::InvalidField("area id")
            );
        }
    }

    /// Never-panic property over arbitrary bytes and mutated
    /// containers. Half the mutations stay inside one chunk's payload
    /// and re-seal its checksum, so corrupted counts, ids and flags reach
    /// the parsers instead of stopping at the checksum.
    #[test]
    fn arbitrary_and_mutated_containers_never_panic() {
        use crate::city::CityConfig;
        use deepsd_rng::{cases, mutate, random_bytes};
        let ds = SimDataset::generate(&SimConfig {
            city: CityConfig {
                n_areas: 3,
                seed: 5,
            },
            n_days: 1,
            ..SimConfig::smoke(5)
        });
        let blob = encode_dataset_v2(&ds);
        cases(256, |case| {
            let mut bytes = match case.below(3) {
                0 => {
                    let mut b = MAGIC2.to_vec();
                    b.extend(random_bytes(case, 512));
                    b
                }
                1 => {
                    let mut b = blob.clone();
                    mutate(case, &mut b);
                    b
                }
                _ => blob.clone(),
            };
            if bytes == blob {
                let chunk = match case.gen_range(0u16..=3) {
                    0 => None,
                    area => Some(area - 1),
                };
                let off = chunk_offset(&bytes, chunk);
                let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
                let at = case.gen_range(0..len);
                let width = case.gen_range(1..=8usize).min(len - at);
                let edit: Vec<u8> = (0..width).map(|_| case.next_u64() as u8).collect();
                patch_chunk(&mut bytes, off, at, &edit);
            }
            open_and_read_all(&bytes);
        });
    }

    #[test]
    fn blob_is_compact() {
        let ds = SimDataset::generate(&SimConfig::smoke(94));
        let blob = encode_dataset_v2(&ds);
        let framing = CHUNK_FRAMING as usize;
        let weather = ds.n_days as usize * MINUTES_PER_DAY as usize;
        let header = framing
            + 10
            + ds.n_areas() * CITY_AREA_BYTES
            + 7
            + ds.city.adjacency_edges().len() * 4
            + weather * WEATHER_BYTES;
        let areas = ds.n_areas() * (framing + 2 + weather * TRAFFIC_BYTES + 4);
        let order_bytes = blob.len() - MAGIC2.len() - header - areas;
        // Every byte beyond the fixed per-city and per-area framing is
        // an order record of exactly `ORDER_BYTES` (far below a JSON
        // encoding at > 100 B/order).
        assert_eq!(order_bytes, ds.total_orders() * ORDER_BYTES);
    }
}
