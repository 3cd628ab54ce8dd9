#include "src/isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <deque>
#include <string_view>
#include <unordered_map>

#include "src/common/check.h"
#include "src/isa/isa.h"

namespace neuroc {

uint32_t AssembledProgram::SymbolAddr(const std::string& name) const {
  auto it = symbols.find(name);
  NEUROC_CHECK_MSG(it != symbols.end(), name.c_str());
  return it->second;
}

SymbolTable::SymbolTable(const std::map<std::string, uint32_t>& symbols) {
  std::vector<Entry> sorted;
  sorted.reserve(symbols.size());
  for (const auto& [name, addr] : symbols) {
    sorted.push_back({addr, name});
  }
  // Address order; ties broken by name (map order) so the joined form is deterministic.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) { return a.addr < b.addr; });
  for (Entry& e : sorted) {
    if (!entries_.empty() && entries_.back().addr == e.addr) {
      entries_.back().name += "/" + e.name;
    } else {
      entries_.push_back(std::move(e));
    }
  }
}

const SymbolTable::Entry* SymbolTable::Resolve(uint32_t addr) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), addr,
      [](uint32_t a, const Entry& e) { return a < e.addr; });
  if (it == entries_.begin()) {
    return nullptr;
  }
  return &*std::prev(it);
}

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool IsAllLower(std::string_view s) {
  return std::none_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isupper(c);
  });
}

char Lower(char c) { return static_cast<char>(std::tolower(static_cast<unsigned char>(c))); }

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

void SkipSpace(std::string_view s, size_t& p) {
  while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
    ++p;
  }
}

[[noreturn]] void Fail(int line_no, const std::string& msg) {
  std::fprintf(stderr, "assembler error at line %d: %s\n", line_no, msg.c_str());
  std::abort();
}

// A directive's operands, split at commas and trimmed.
std::vector<std::string_view> SplitOperands(std::string_view s) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const size_t comma = s.find(',');
    out.push_back(Trim(s.substr(0, comma)));
    s = comma == std::string_view::npos ? std::string_view() : s.substr(comma + 1);
  }
  return out;
}

// The readers below each take the token at s[p] and advance p past it, or return false.

// r0-r15, sp, lr or pc, in either case.
bool ReadReg(std::string_view s, size_t& p, uint8_t& reg) {
  if (p + 2 > s.size()) {
    return false;
  }
  const char a = Lower(s[p]);
  const char b = Lower(s[p + 1]);
  if (a == 'r') {
    unsigned number = 0;
    const auto [end, ec] = std::from_chars(s.data() + p + 1, s.data() + s.size(), number);
    if (ec != std::errc() || number > 15) {
      return false;
    }
    reg = static_cast<uint8_t>(number);
    p = static_cast<size_t>(end - s.data());
    return true;
  }
  for (const uint8_t named : {kRegSp, kRegLr, kRegPc}) {
    if (a == RegName(named)[0] && b == RegName(named)[1]) {
      reg = named;
      p += 2;
      return true;
    }
  }
  return false;
}

// A decimal or 0x-prefixed hexadecimal number, optionally signed.
bool ReadNumber(std::string_view s, size_t& p, int64_t& value) {
  size_t q = p;
  const bool negative = q < s.size() && s[q] == '-';
  if (q < s.size() && (s[q] == '-' || s[q] == '+')) {
    ++q;
  }
  int base = 10;
  if (q + 2 < s.size() && s[q] == '0' && Lower(s[q + 1]) == 'x') {
    base = 16;
    q += 2;
  }
  uint64_t magnitude = 0;
  const auto [end, ec] = std::from_chars(s.data() + q, s.data() + s.size(), magnitude, base);
  if (ec != std::errc()) {
    return false;
  }
  value = negative ? -static_cast<int64_t>(magnitude) : static_cast<int64_t>(magnitude);
  p = static_cast<size_t>(end - s.data());
  return true;
}

bool IsIdentifierStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool IsIdentifierChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool IsIdentifier(std::string_view s) {
  return !s.empty() && IsIdentifierStart(s[0]) &&
         std::all_of(s.begin(), s.end(), IsIdentifierChar);
}

// A number, or a label resolved once the layout is known. The label is a view into the
// source text, which outlives the assembly passes.
struct ValueRef {
  std::string_view label;  // empty for a number
  int64_t value = 0;
};

bool ReadValue(std::string_view s, size_t& p, ValueRef& ref) {
  if (p < s.size() && IsIdentifierStart(s[p])) {
    size_t q = p;
    while (q < s.size() && IsIdentifierChar(s[q])) {
      ++q;
    }
    ref.label = s.substr(p, q - p);
    p = q;
    return true;
  }
  return ReadNumber(s, p, ref.value);
}

// The inside of a register list: low registers, ranges of them, and `bit8`, the register
// the list's bit 8 names (ListBit8).
bool ReadRegList(std::string_view s, size_t& p, uint8_t bit8, uint16_t& list) {
  for (;;) {
    uint8_t lo = 0;
    SkipSpace(s, p);
    if (!ReadReg(s, p, lo)) {
      return false;
    }
    SkipSpace(s, p);
    uint8_t hi = lo;
    if (p < s.size() && s[p] == '-') {
      ++p;
      SkipSpace(s, p);
      if (!ReadReg(s, p, hi) || lo > hi) {
        return false;
      }
      SkipSpace(s, p);
    }
    if (hi < 8) {
      list |= static_cast<uint16_t>((2u << hi) - (1u << lo));
    } else if (lo == bit8 && hi == bit8) {
      list |= 0x100;
    } else {
      return false;
    }
    if (p == s.size() || s[p] != ',') {
      return true;
    }
    ++p;
  }
}

// One way to write an instruction: its op, the condition a b<cond> mnemonic names, and its
// operand syntax (OperandSyntax).
struct Spelling {
  Op op = Op::kInvalid;
  Cond cond = Cond::kAl;
  const char* syntax = "";
};

// An instruction's operands as a spelling reads them: the fields, and the `a` or `v`
// operand still to resolve, when the syntax has one.
struct Operands {
  Instr in;
  char pending = 0;
  ValueRef ref;
};

bool Match(const Spelling& spelling, std::string_view text, Operands& out) {
  out = Operands{};
  Instr& in = out.in;
  in.op = spelling.op;
  in.cond = spelling.cond;
  uint8_t named = 0;  // register placeholders read so far: a repeat names the same register
  size_t p = 0;
  for (const char* c = spelling.syntax; *c != '\0'; ++c) {
    if (*c == ' ') {
      continue;
    }
    SkipSpace(text, p);
    switch (*c) {
      case 'd':
      case 'n':
      case 'm': {
        uint8_t& field = *c == 'd' ? in.rd : *c == 'n' ? in.rn : in.rm;
        const uint8_t bit = *c == 'd' ? 1 : *c == 'n' ? 2 : 4;
        uint8_t reg = 0;
        if (!ReadReg(text, p, reg) || ((named & bit) != 0 && reg != field)) {
          return false;
        }
        field = reg;
        named |= bit;
        break;
      }
      case 'i': {
        int64_t value = 0;
        if (!ReadNumber(text, p, value) || value != static_cast<int32_t>(value)) {
          return false;
        }
        in.imm = static_cast<int32_t>(value);
        break;
      }
      case 'l':
        if (!ReadRegList(text, p, ListBit8(in.op), in.reglist)) {
          return false;
        }
        break;
      case 'a':
      case 'v':
        if (!ReadValue(text, p, out.ref)) {
          return false;
        }
        out.pending = *c;
        break;
      default:
        if (p == text.size() || Lower(text[p]) != *c) {
          return false;
        }
        ++p;
    }
  }
  SkipSpace(text, p);
  return p == text.size();
}

// Hash with heterogeneous lookup, so neither a mnemonic nor a label is copied to be looked
// up: a 100k-line unrolled kernel does one of each per line.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};
template <typename T>
using StringMap = std::unordered_map<std::string, T, StringHash, std::equal_to<>>;

// Every mnemonic's spellings: the rows that carry it, in row order, then its aliases.
const StringMap<std::vector<Spelling>>& Spellings() {
  static const StringMap<std::vector<Spelling>> spellings = [] {
    StringMap<std::vector<Spelling>> map;
    for (size_t i = 1; i < kNumOps; ++i) {  // row 0 is kInvalid
      const Op op = static_cast<Op>(i);
      if (InfoOf(op).form != Form::kCondImm8) {
        map[OpName(op)].push_back({op, Cond::kAl, OperandSyntax(op)});
        continue;
      }
      for (int c = 0; c < static_cast<int>(Cond::kAl); ++c) {
        const Cond cond = static_cast<Cond>(c);
        std::string mnemonic = OpName(op);
        mnemonic += CondName(cond);
        map[mnemonic].push_back({op, cond, OperandSyntax(op)});
      }
    }
    for (const Alias& alias : kAliases) {
      map[alias.mnemonic].push_back({alias.op, Cond::kAl, alias.syntax});
    }
    return map;
  }();
  return spellings;
}

int64_t ParseNumber(std::string_view s, int line_no) {
  size_t p = 0;
  int64_t value = 0;
  if (!ReadNumber(s, p, value) || p != s.size()) {
    Fail(line_no, "bad number: " + std::string(s));
  }
  return value;
}

ValueRef ParseValueRef(std::string_view s, int line_no) {
  size_t p = 0;
  ValueRef ref;
  if (!ReadValue(s, p, ref) || p != s.size()) {
    Fail(line_no, "expected number or label: " + std::string(s));
  }
  return ref;
}

bool IsDirective(std::string_view m) {
  return m == ".word" || m == ".half" || m == ".byte" || m == ".align";
}

// ---------------------------------------------------------------------------
// The assembler proper.
// ---------------------------------------------------------------------------

class AssemblerImpl {
 public:
  AssemblerImpl(const std::string& source, uint32_t base_addr) : base_(base_addr) {
    NEUROC_CHECK(base_addr % 4 == 0);
    ParseSource(source);
    LayoutPass();
    EmitPass();
  }

  AssembledProgram Take() {
    AssembledProgram p;
    p.base_addr = base_;
    p.bytes = std::move(bytes_);
    // The public symbol table stays an ordered map (deterministic iteration for tools);
    // the hash map is an internal lookup structure only.
    p.symbols.insert(symbols_.begin(), symbols_.end());
    return p;
  }

 private:
  // One statement: a directive, or an instruction whose spelling the parse has chosen.
  // A generated kernel has one per line, so it stays small.
  struct Item {
    int line_no = 0;
    uint32_t offset = 0;        // from base
    uint32_t size = 0;          // bytes
    uint16_t hw[2] = {0, 0};    // an instruction's encoding, unless an operand is pending
    int unresolved = -1;        // else the index of its operands in unresolved_
    int pool_index = -1;        // the literal-pool entry of `ldr rd, =value`
    std::string_view mnemonic;  // lowercase
    std::string_view operands;  // the operand text, trimmed
  };

  struct PoolEntry {
    ValueRef value;
    uint32_t offset = 0;  // assigned at layout
  };

  // Single scan over the source text. Every line, label, mnemonic and operand is a view
  // into `source` (which the caller keeps alive for the lifetime of the impl), so parsing
  // a 100k-line generated kernel does no per-line or per-token string copies; the items
  // array itself is reserved up front from the newline count.
  void ParseSource(const std::string& source) {
    const std::string_view src(source);
    const size_t line_estimate =
        1 + static_cast<size_t>(std::count(src.begin(), src.end(), '\n'));
    items_.reserve(line_estimate);
    item_labels_.reserve(line_estimate);
    int line_no = 0;
    size_t pos = 0;
    while (pos <= src.size()) {
      size_t eol = src.find('\n', pos);
      if (eol == std::string_view::npos) {
        eol = src.size();
      }
      std::string_view line = src.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;
      // Strip comments: truncate at the earliest of `@`, `;`, `//`.
      for (size_t c = line.find_first_of("@;/"); c != std::string_view::npos;
           c = line.find_first_of("@;/", c + 1)) {
        if (line[c] != '/' || (c + 1 < line.size() && line[c + 1] == '/')) {
          line = line.substr(0, c);
          break;
        }
      }
      line = Trim(line);
      // Labels (possibly several, possibly followed by a statement).
      for (;;) {
        const size_t colon = line.find(':');
        if (colon == std::string_view::npos) {
          break;
        }
        const std::string_view label = Trim(line.substr(0, colon));
        if (!IsIdentifier(label)) {
          Fail(line_no, "bad label: " + std::string(label));
        }
        pending_labels_.push_back(label);
        line = Trim(line.substr(colon + 1));
      }
      if (line.empty()) {
        continue;
      }
      Item item;
      item.line_no = line_no;
      const size_t sp = line.find_first_of(" \t");
      const std::string_view mnemonic = line.substr(0, sp);
      // Generated sources are all-lowercase already; hand-written uppercase mnemonics
      // take the slow path through an owned lowercase side table.
      item.mnemonic = IsAllLower(mnemonic)
                          ? mnemonic
                          : std::string_view(owned_.emplace_back(ToLower(mnemonic)));
      if (sp != std::string_view::npos) {
        item.operands = Trim(line.substr(sp + 1));
      }
      if (!IsDirective(item.mnemonic)) {
        ParseInstr(item);
      }
      // Attach any pending labels to this item (resolved to its offset at layout).
      item_labels_.push_back(std::move(pending_labels_));
      pending_labels_.clear();
      items_.push_back(std::move(item));
    }
    // Labels at end of file point at the end address.
    trailing_labels_ = std::move(pending_labels_);
  }

  // Takes the mnemonic's first spelling whose syntax matches the operands and, unless an
  // operand waits for the layout, whose fields the encoder accepts.
  void ParseInstr(Item& item) {
    const auto& spellings = Spellings();
    const auto it = spellings.find(item.mnemonic);
    if (it == spellings.end()) {
      Fail(item.line_no, "unknown mnemonic: " + std::string(item.mnemonic));
    }
    const char* misfit = "operands match no syntax";
    Operands ops;
    for (const Spelling& spelling : it->second) {
      if (!Match(spelling, item.operands, ops) ||
          (ops.pending == 0 && EncodeInstr(ops.in, item.hw, &misfit) == 0)) {
        continue;
      }
      item.size = InfoOf(spelling.op).form == Form::kImm24 ? 4 : 2;
      if (ops.pending == 'v') {
        item.pool_index = static_cast<int>(pool_.size());
        pool_.push_back({ops.ref});
      }
      if (ops.pending != 0) {
        item.unresolved = static_cast<int>(unresolved_.size());
        unresolved_.push_back(ops);
      }
      return;
    }
    FailOperands(item, misfit);
  }

  [[noreturn]] void FailOperands(const Item& item, const char* why) {
    std::string msg(item.mnemonic);
    msg += ' ';
    msg += item.operands;
    msg += ": ";
    msg += why;
    Fail(item.line_no, msg);
  }

  void LayoutPass() {
    uint32_t offset = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      Item& item = items_[i];
      const std::vector<std::string_view> args = item.mnemonic[0] == '.'
                                                     ? SplitOperands(item.operands)
                                                     : std::vector<std::string_view>();
      if (item.mnemonic == ".align") {
        const int n = args.empty() ? 2 : static_cast<int>(ParseNumber(args[0], item.line_no));
        const uint32_t align = 1u << n;
        const uint32_t aligned = (offset + align - 1) & ~(align - 1);
        item.size = aligned - offset;
      } else if (item.mnemonic == ".word") {
        // .word data must be 4-aligned; insert implicit padding.
        const uint32_t aligned = (offset + 3u) & ~3u;
        item.size = static_cast<uint32_t>(aligned - offset + 4 * args.size());
      } else if (item.mnemonic == ".half") {
        const uint32_t aligned = (offset + 1u) & ~1u;
        item.size = static_cast<uint32_t>(aligned - offset + 2 * args.size());
      } else if (item.mnemonic == ".byte") {
        item.size = static_cast<uint32_t>(args.size());
      }
      item.offset = offset;
      for (const std::string_view label : item_labels_[i]) {
        // Labels bind to the aligned start of data for .word/.half.
        uint32_t label_off = offset;
        if (item.mnemonic == ".word") {
          label_off = (offset + 3u) & ~3u;
        } else if (item.mnemonic == ".half") {
          label_off = (offset + 1u) & ~1u;
        }
        DefineSymbol(label, base_ + label_off, item.line_no);
      }
      offset += item.size;
    }
    // Literal pool at the end, 4-aligned (no padding when there is no pool).
    if (pool_.empty()) {
      total_size_ = offset;
    } else {
      pool_base_ = (offset + 3u) & ~3u;
      for (PoolEntry& e : pool_) {
        e.offset = pool_base_ + 4 * static_cast<uint32_t>(&e - pool_.data());
      }
      total_size_ = pool_base_ + 4 * static_cast<uint32_t>(pool_.size());
    }
    for (const std::string_view label : trailing_labels_) {
      DefineSymbol(label, base_ + total_size_, 0);
    }
  }

  void DefineSymbol(std::string_view name, uint32_t addr, int line_no) {
    if (!symbols_.emplace(std::string(name), addr).second) {
      Fail(line_no, "duplicate label: " + std::string(name));
    }
  }

  uint32_t Resolve(const ValueRef& v, int line_no) const {
    if (v.label.empty()) {
      return static_cast<uint32_t>(v.value);
    }
    const auto it = symbols_.find(v.label);  // heterogeneous: no key allocation
    if (it == symbols_.end()) {
      Fail(line_no, "undefined label: " + std::string(v.label));
    }
    return it->second;
  }

  void EmitPass() {
    bytes_.assign(total_size_, 0);
    for (const Item& item : items_) {
      EmitItem(item);
    }
    for (const PoolEntry& e : pool_) {
      Put32(e.offset, Resolve(e.value, 0));
    }
  }

  void Put16(uint32_t offset, uint16_t v) {
    NEUROC_CHECK(offset + 2 <= bytes_.size());
    bytes_[offset] = static_cast<uint8_t>(v & 0xFF);
    bytes_[offset + 1] = static_cast<uint8_t>(v >> 8);
  }

  void Put32(uint32_t offset, uint32_t v) {
    Put16(offset, static_cast<uint16_t>(v & 0xFFFF));
    Put16(offset + 2, static_cast<uint16_t>(v >> 16));
  }

  void EmitItem(const Item& item) {
    const int ln = item.line_no;
    const std::string_view m = item.mnemonic;
    if (m == ".align") {
      return;  // padding already zeroed
    }
    if (m == ".word") {
      uint32_t off = (item.offset + 3u) & ~3u;
      for (const std::string_view op : SplitOperands(item.operands)) {
        Put32(off, Resolve(ParseValueRef(op, ln), ln));
        off += 4;
      }
      return;
    }
    if (m == ".half") {
      uint32_t off = (item.offset + 1u) & ~1u;
      for (const std::string_view op : SplitOperands(item.operands)) {
        Put16(off, static_cast<uint16_t>(ParseNumber(op, ln)));
        off += 2;
      }
      return;
    }
    if (m == ".byte") {
      uint32_t off = item.offset;
      for (const std::string_view op : SplitOperands(item.operands)) {
        NEUROC_CHECK(off < bytes_.size());
        bytes_[off++] = static_cast<uint8_t>(ParseNumber(op, ln));
      }
      return;
    }
    uint16_t hw[2] = {item.hw[0], item.hw[1]};
    if (item.unresolved >= 0) {
      // An address counts from the pc base; a pool value is loaded from its slot.
      const Operands& ops = unresolved_[static_cast<size_t>(item.unresolved)];
      Instr in = ops.in;
      const uint32_t target = ops.pending == 'v'
                                  ? base_ + pool_[static_cast<size_t>(item.pool_index)].offset
                                  : Resolve(ops.ref, ln);
      in.imm = static_cast<int32_t>(target - PcBase(in.op, base_ + item.offset));
      const char* misfit = nullptr;
      if (EncodeInstr(in, hw, &misfit) == 0) {
        FailOperands(item, misfit);
      }
    }
    Put16(item.offset, hw[0]);
    if (item.size == 4) {
      Put16(item.offset + 2, hw[1]);
    }
  }

  uint32_t base_;
  std::vector<Item> items_;
  std::vector<Operands> unresolved_;
  std::vector<std::vector<std::string_view>> item_labels_;
  std::vector<std::string_view> pending_labels_;
  std::vector<std::string_view> trailing_labels_;
  std::vector<PoolEntry> pool_;
  uint32_t pool_base_ = 0;
  uint32_t total_size_ = 0;
  StringMap<uint32_t> symbols_;
  std::deque<std::string> owned_;  // lowercase copies of non-lowercase mnemonics
  std::vector<uint8_t> bytes_;
};

}  // namespace

AssembledProgram Assemble(const std::string& source, uint32_t base_addr) {
  AssemblerImpl impl(source, base_addr);
  return impl.Take();
}

}  // namespace neuroc
