// The text codec behind every line-oriented format: graph_io, certificate_io,
// the certificate log (recover/cert_log) and the fleet wire protocol.
//
// Reading. LineReader splits its input into lines and whitespace-separated
// tokens itself, so a parser can attribute every defect to a 1-based line
// number and the offending token, which ParseError then carries to the
// caller. It has two sources:
//
//   * a std::string_view, parsed in place — the text must outlive the
//     reader, and nothing is copied or allocated per line or per token;
//   * a std::istream, read one line at a time into one reused buffer. The
//     reader consumes nothing after the line holding the last token it
//     handed out (or probed with at_end), so several objects can share a
//     stream.
//
// Tokens are views into the current line: valid until the reader moves to
// the next line. Whitespace is exactly the six bytes " \t\n\v\f\r", the set
// `std::istream >> std::string` skips in the classic locale, and tokens
// never span lines. Integers are parsed with std::from_chars in base 10
// with an optional leading '+'; a value beyond the long long range is
// clamped to it before the range check, so messages quote the same number
// strtoll would have produced. A token is an integer only when all of it
// converts — a NUL byte inside a token is an ordinary non-digit.
//
// Edge lines. Most of a certificate is edge (or arc) lines, and every
// writer spells them "<tag> <u> <v> <colour>\n" with single spaces and
// plain digits. edge_line() decodes such a line in one pass, without
// splitting tokens; any other spelling — extra whitespace, a sign, a CR, a
// value out of range, a line that is not an edge — is left untouched for the
// token path, which accepts everything it accepted before and throws the
// same ParseError. Callers try edge_line() first and fall back to token(),
// so what a text parses to never depends on which path read it.
//
// Writing. append_int renders an integer with std::to_chars onto the end of
// a std::string; the writers of every format append to one string this way
// instead of going through an ostream.
#pragma once

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstddef>
#include <istream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "ldlb/util/error.hpp"

namespace ldlb {

/// Appends the decimal digits of `value` to `out`.
inline void append_int(std::string& out, long long value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

/// The three integers of one edge (or arc) line.
struct EdgeLine {
  long long u = 0;
  long long v = 0;
  long long colour = 0;
};

class LineReader {
 public:
  /// Parses `text` in place; `text` must outlive the reader.
  explicit LineReader(std::string_view text) : rest_(text) {}
  /// Reads `is` one line at a time into a reused buffer.
  explicit LineReader(std::istream& is) : is_(&is) {}

  // Tokens point into the reader's own line buffer in stream mode.
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Next token; `what` names the expected item for the error message when
  /// the input ends instead. The view is valid until the next line is read.
  std::string_view token(const char* what) {
    if (!pushed_back_.empty()) return std::exchange(pushed_back_, {});
    std::string_view tok;
    while (!next_token(tok)) {
      if (!next_line()) {
        fail(std::string("unexpected end of input — expected ") + what);
      }
    }
    return tok;
  }

  /// Next token parsed as an integer in [lo, hi].
  long long integer(const char* what, long long lo, long long hi) {
    const std::string_view tok = token(what);
    long long value = 0;
    if (!parse_integer(tok, value)) {
      fail(std::string("expected integer ") + what, tok);
    }
    if (value < lo || value > hi) {
      std::string msg = what;
      msg += ' ';
      append_int(msg, value);
      msg += " out of range [";
      append_int(msg, lo);
      msg += ", ";
      append_int(msg, hi);
      msg += ']';
      fail(msg, tok);
    }
    return value;
  }

  /// Consumes the next token and requires it to equal `expected`.
  void expect(std::string_view expected, const char* what) {
    const std::string_view tok = token(what);
    if (tok != expected) {
      fail("expected '" + std::string(expected) + "' (" + what + ")", tok);
    }
  }

  /// Returns the token just read to the reader; the next token() call
  /// yields it again. At most one token can be pushed back at a time
  /// (parsers use this for one-token lookahead, e.g. 'level' vs 'end').
  void push_back(std::string_view tok) {
    LDLB_REQUIRE_MSG(pushed_back_.empty(),
                     "LineReader holds at most one pushed-back token");
    pushed_back_ = tok;
  }

  /// True when only whitespace remains. A probed token is pushed back and
  /// returned by the next token() call.
  bool at_end() {
    if (!pushed_back_.empty()) return false;
    std::string_view probe;
    for (;;) {
      if (next_token(probe)) {
        pushed_back_ = probe;
        return false;
      }
      if (!next_line()) return true;
    }
  }

  /// Decodes the next line when it is exactly "<tag> <u> <v> <colour>" and
  /// a newline (or, in stream mode, the end of the line), single-spaced,
  /// with u and v plain digits in [0, max_endpoint] and colour plain digits
  /// in [0, max_colour]. Runs only when the current line has no token left
  /// and nothing is pushed back. Returns false, having consumed nothing the
  /// token path would read differently, for any other input: the caller
  /// then reads the item token by token, which accepts every other spelling
  /// (and negative colours) or throws. A decoded value also satisfies any
  /// lower bound <= 0 the token path would have checked.
  bool edge_line(char tag, long long max_endpoint, long long max_colour,
                 EdgeLine& out) {
    if (!pushed_back_.empty()) return false;
    while (cur_ != end_ && is_space(*cur_)) ++cur_;
    if (cur_ != end_) return false;
    if (is_ != nullptr) {
      // The token path would read this line next anyway; on a mismatch it
      // stays current and the token path splits it instead.
      if (!next_line()) return false;
      if (decode_edge(cur_, end_, tag, max_endpoint, max_colour, out) !=
          end_) {
        return false;
      }
      cur_ = end_;
      return true;
    }
    const char* const first = rest_.data();
    const char* const last = first + rest_.size();
    const char* const nl =
        decode_edge(first, last, tag, max_endpoint, max_colour, out);
    if (nl == nullptr || nl == last || *nl != '\n') return false;
    cur_ = end_ = nl;
    rest_.remove_prefix(static_cast<std::size_t>(nl + 1 - first));
    ++line_;
    return true;
  }

  /// How many edge lines a count may reserve for: at most `count`, and at
  /// most what the unread input can hold, each edge taking at least
  /// "e 0 0 0" and a separator. In stream mode the unread input is what
  /// the stream buffer reports available, which never exceeds what is left.
  [[nodiscard]] std::size_t edge_capacity(long long count) const {
    std::size_t unread = static_cast<std::size_t>(end_ - cur_);
    if (is_ == nullptr) {
      unread += rest_.size();
    } else if (is_->rdbuf() != nullptr) {
      const std::streamsize avail = is_->rdbuf()->in_avail();
      if (avail > 0) unread += static_cast<std::size_t>(avail);
    }
    const std::size_t room = (unread + 1) / 8;
    return count <= 0 ? 0
                      : std::min(static_cast<std::size_t>(count), room);
  }

  /// Line of the most recently read token (1-based; 0 before any read).
  [[nodiscard]] int line() const { return line_; }

  /// Throws ParseError anchored at the current line.
  [[noreturn]] void fail(const std::string& msg,
                         std::string_view tok = {}) const {
    std::string text = "line ";
    append_int(text, line_);
    text += ": ";
    text += msg;
    if (!tok.empty()) {
      text += ", got '";
      text += tok;
      text += '\'';
    }
    throw ParseError(text, line_, std::string(tok));
  }

 private:
  // A whole token as a base-10 integer under the rules in the header
  // comment; false when any byte of it does not convert.
  static bool parse_integer(std::string_view tok, long long& value) {
    const char* first = tok.data();
    const char* const last = first + tok.size();
    if (first != last && *first == '+') {
      ++first;
      if (first != last && *first == '-') return false;  // "+-5"
    }
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::invalid_argument || ptr != last) return false;
    if (ec == std::errc::result_out_of_range) {
      value = *first == '-' ? LLONG_MIN : LLONG_MAX;
    }
    return true;
  }

  static bool is_space(char ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  }

  // Plain digits at `p` (at most 10, so no overflow) with a value in
  // [0, max]; the end of the digits, or nullptr.
  static const char* decode_digits(const char* p, const char* last,
                                   long long max, long long& value) {
    const char* const stop = p + std::min<std::ptrdiff_t>(last - p, 10);
    const char* q = p;
    long long v = 0;
    while (q != stop && *q >= '0' && *q <= '9') {
      v = v * 10 + (*q - '0');
      ++q;
    }
    if (q == p || v > max) return nullptr;
    value = v;
    return q;
  }

  // "<tag> <u> <v> <colour>" at the start of [p, last), single spaces and
  // plain digits in range; one past the colour, or nullptr.
  static const char* decode_edge(const char* p, const char* last, char tag,
                                 long long max_endpoint, long long max_colour,
                                 EdgeLine& out) {
    if (last - p < 7 || p[0] != tag || p[1] != ' ') return nullptr;
    p = decode_digits(p + 2, last, max_endpoint, out.u);
    if (p == nullptr || p == last || *p != ' ') return nullptr;
    p = decode_digits(p + 1, last, max_endpoint, out.v);
    if (p == nullptr || p == last || *p != ' ') return nullptr;
    return decode_digits(p + 1, last, max_colour, out.colour);
  }

  // Next token of the current line; false (line exhausted) when none.
  bool next_token(std::string_view& tok) {
    const char* p = cur_;
    while (p != end_ && is_space(*p)) ++p;
    const char* const start = p;
    while (p != end_ && !is_space(*p)) ++p;
    cur_ = p;
    if (start == p) return false;
    tok = std::string_view(start, static_cast<std::size_t>(p - start));
    return true;
  }

  // Makes the next line current; false at the end of the input. A final
  // line without its newline still counts, as with std::getline.
  bool next_line() {
    std::string_view line;
    if (is_ != nullptr) {
      if (!std::getline(*is_, buf_)) return false;
      line = buf_;
    } else {
      if (rest_.empty()) return false;
      const std::size_t nl = rest_.find('\n');
      line = rest_.substr(0, nl);
      rest_.remove_prefix(nl == std::string_view::npos ? rest_.size()
                                                       : nl + 1);
    }
    cur_ = line.data();
    end_ = cur_ + line.size();
    ++line_;
    return true;
  }

  std::istream* is_ = nullptr;  // stream mode when set
  std::string buf_;             // stream mode: the current line
  std::string_view rest_;       // in-place mode: text after the current line
  const char* cur_ = nullptr;   // unread part of the current line
  const char* end_ = nullptr;
  std::string_view pushed_back_;
  int line_ = 0;
};

}  // namespace ldlb
