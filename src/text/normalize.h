// Copyright 2026 The MinoanER Authors.
// The byte classes of the text normalization the tokenizer applies.
//
// Web-of-data literals come from autonomous KBs with inconsistent casing,
// punctuation and whitespace; normalization maximizes the chance that two
// descriptions of the same real-world entity share tokens (the minimal
// matching assumption MinoanER's blocking relies on).

#ifndef MINOAN_TEXT_NORMALIZE_H_
#define MINOAN_TEXT_NORMALIZE_H_

namespace minoan {

/// ASCII-lowercases a single byte.
inline char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True for bytes that belong inside a token: ASCII alphanumerics and any
/// non-ASCII byte.
inline bool IsTokenByte(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return (u >= '0' && u <= '9') || (u >= 'a' && u <= 'z') ||
         (u >= 'A' && u <= 'Z') || u >= 0x80;
}

}  // namespace minoan

#endif  // MINOAN_TEXT_NORMALIZE_H_
