// Copyright 2026 The MinoanER Authors.

#include "extmem/run_codec.h"

#include <cstring>

namespace minoan {
namespace extmem {

namespace {

constexpr size_t kMaxVarintBytes = 10;

[[noreturn]] void ThrowCorrupt(const std::string& path, const char* what) {
  throw SpillError("compressed run " + path + ": " + what);
}

}  // namespace

void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view bytes, size_t& pos, uint64_t& v) {
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos + i >= bytes.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(bytes[pos + i]);
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      pos += i + 1;
      v = value;
      return true;
    }
  }
  return false;  // overlong encoding
}

CompressedRunWriter::CompressedRunWriter(std::string path)
    : path_(std::move(path)) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    throw SpillError("failed to open spill run for writing: " + path_);
  }
  out_.write(kRunMagic.data(), static_cast<std::streamsize>(kRunMagic.size()));
  bytes_ += kRunMagic.size();
}

void CompressedRunWriter::Append(std::string_view record) {
  if (record.size() < 4) {
    throw SpillError("malformed shuffle record (short frame): " + path_);
  }
  const uint32_t key_len = ReadU32Le(record);
  if (record.size() < 4u + key_len) {
    throw SpillError("malformed shuffle record (short key): " + path_);
  }
  const std::string_view key = record.substr(4, key_len);
  const std::string_view payload = record.substr(4 + key_len);

  size_t shared = 0;
  const size_t max_shared = std::min(prev_key_.size(), key.size());
  while (shared < max_shared && prev_key_[shared] == key[shared]) ++shared;

  frame_.clear();
  PutVarint(frame_, shared);
  PutVarint(frame_, key.size() - shared);
  PutVarint(frame_, payload.size());
  frame_.append(key.substr(shared));
  frame_.append(payload);
  out_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  bytes_ += frame_.size();
  ++records_;
  prev_key_.assign(key.data(), key.size());
}

uint64_t CompressedRunWriter::Close() {
  out_.flush();
  if (!out_.good()) {
    throw SpillError("failed to write spill run: " + path_);
  }
  out_.close();
  return bytes_;
}

CompressedRunReader::CompressedRunReader(std::string path)
    : path_(std::move(path)) {
  in_.open(path_, std::ios::binary);
  if (!in_.is_open()) {
    throw SpillError("failed to open spill run for reading: " + path_);
  }
  char magic[8];
  in_.read(magic, static_cast<std::streamsize>(kRunMagic.size()));
  if (static_cast<size_t>(in_.gcount()) != kRunMagic.size() ||
      std::memcmp(magic, kRunMagic.data(), kRunMagic.size()) != 0) {
    ThrowCorrupt(path_, "bad magic");
  }
}

bool CompressedRunReader::Next(std::string_view& record) {
  // Read the (up to 3 * 10 byte) varint header. The first byte decides
  // between clean EOF and truncation.
  char header[3 * kMaxVarintBytes];
  in_.read(header, 1);
  if (in_.gcount() == 0) {
    if (in_.eof()) return false;
    ThrowCorrupt(path_, "read failure");
  }
  size_t header_len = 1;
  uint64_t shared = 0, suffix_len = 0, payload_len = 0;
  uint64_t* const fields[3] = {&shared, &suffix_len, &payload_len};
  size_t pos = 0;
  for (int f = 0; f < 3; ++f) {
    for (;;) {
      size_t probe = pos;
      if (GetVarint(std::string_view(header, header_len), probe, *fields[f])) {
        pos = probe;
        break;
      }
      if (header_len >= sizeof(header)) ThrowCorrupt(path_, "overlong varint");
      in_.read(header + header_len, 1);
      if (in_.gcount() != 1) ThrowCorrupt(path_, "truncated frame header");
      ++header_len;
      if (header_len - pos > kMaxVarintBytes) {
        ThrowCorrupt(path_, "overlong varint");
      }
    }
  }

  if (shared > prev_key_.size()) {
    ThrowCorrupt(path_, "shared prefix exceeds previous key");
  }
  if (suffix_len > kMaxRunFieldBytes || payload_len > kMaxRunFieldBytes ||
      shared + suffix_len > kMaxRunFieldBytes) {
    ThrowCorrupt(path_, "oversized frame");
  }

  const size_t key_len = static_cast<size_t>(shared + suffix_len);
  record_.clear();
  AppendU32Le(record_, static_cast<uint32_t>(key_len));
  record_.append(prev_key_, 0, static_cast<size_t>(shared));
  const size_t body_len = static_cast<size_t>(suffix_len + payload_len);
  const size_t body_at = record_.size();
  record_.resize(record_.size() + body_len);
  in_.read(record_.data() + body_at, static_cast<std::streamsize>(body_len));
  if (static_cast<size_t>(in_.gcount()) != body_len) {
    ThrowCorrupt(path_, "truncated record body");
  }
  prev_key_.assign(record_.data() + 4, key_len);
  record = record_;
  return true;
}

}  // namespace extmem
}  // namespace minoan
