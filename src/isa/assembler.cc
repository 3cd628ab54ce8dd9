#include "src/isa/assembler.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <deque>
#include <optional>
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

// One parsed statement (instruction or directive) with source location for diagnostics.
// Mnemonic and operands are views into the source text (or the impl's lowercase side
// table), so a 100k-line generated kernel parses without per-token string copies.
struct Statement {
  int line_no = 0;
  std::string_view mnemonic;               // lowercase
  std::vector<std::string_view> operands;  // raw operand views, trimmed
};

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

[[noreturn]] void Fail(int line_no, const std::string& msg) {
  std::fprintf(stderr, "assembler error at line %d: %s\n", line_no, msg.c_str());
  std::abort();
}

// Splits operands at top-level commas (commas inside [] or {} do not split).
std::vector<std::string_view> SplitOperands(std::string_view s, int line_no) {
  std::vector<std::string_view> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      --depth;
      if (depth < 0) {
        Fail(line_no, "unbalanced brackets");
      }
    } else if (c == ',' && depth == 0) {
      out.push_back(Trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  const std::string_view last = Trim(s.substr(start));
  if (!last.empty()) {
    out.push_back(last);
  }
  if (depth != 0) {
    Fail(line_no, "unbalanced brackets");
  }
  return out;
}

std::optional<uint8_t> TryParseReg(std::string_view raw) {
  const std::string s = ToLower(Trim(raw));  // registers fit in SSO, no heap traffic
  if (s == "sp") {
    return kRegSp;
  }
  if (s == "lr") {
    return kRegLr;
  }
  if (s == "pc") {
    return kRegPc;
  }
  if (s.size() >= 2 && s[0] == 'r') {
    int v = 0;
    for (size_t i = 1; i < s.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
        return std::nullopt;
      }
      v = v * 10 + (s[i] - '0');
    }
    if (v <= 15) {
      return static_cast<uint8_t>(v);
    }
  }
  return std::nullopt;
}

uint8_t ParseReg(std::string_view raw, int line_no) {
  auto r = TryParseReg(raw);
  if (!r) {
    Fail(line_no, "bad register: " + std::string(raw));
  }
  return *r;
}

bool IsNumber(std::string_view s) {
  if (s.empty()) {
    return false;
  }
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i >= s.size()) {
    return false;
  }
  if (s.size() > i + 2 && s[i] == '0' && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
    return true;
  }
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
      return false;
    }
  }
  return true;
}

int64_t ParseNumber(std::string_view s, int line_no) {
  if (!IsNumber(s)) {
    Fail(line_no, "bad number: " + std::string(s));
  }
  bool negate = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    negate = (s[0] == '-');
    i = 1;
  }
  int base = 10;
  if (s.size() > i + 2 && s[i] == '0' && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  int64_t v = 0;
  std::from_chars(s.data() + i, s.data() + s.size(), v, base);
  return negate ? -v : v;
}

// Parses `#imm`.
int32_t ParseImm(std::string_view raw, int line_no) {
  const std::string_view s = Trim(raw);
  if (s.empty() || s[0] != '#') {
    Fail(line_no, "expected immediate: " + std::string(raw));
  }
  return static_cast<int32_t>(ParseNumber(Trim(s.substr(1)), line_no));
}

bool IsImm(std::string_view raw) { return !raw.empty() && Trim(raw)[0] == '#'; }

// Parses `{r0, r2-r4, lr}` into a PUSH/POP reglist mask. lr/pc map to bit 8.
uint16_t ParseRegList(std::string_view raw, int line_no) {
  std::string_view s = Trim(raw);
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') {
    Fail(line_no, "expected register list: " + std::string(raw));
  }
  s = s.substr(1, s.size() - 2);
  uint16_t mask = 0;
  for (const std::string_view part : SplitOperands(s, line_no)) {
    const size_t dash = part.find('-');
    if (dash != std::string_view::npos) {
      const uint8_t lo = ParseReg(part.substr(0, dash), line_no);
      const uint8_t hi = ParseReg(part.substr(dash + 1), line_no);
      if (lo > hi || hi > 7) {
        Fail(line_no, "bad register range: " + std::string(part));
      }
      for (uint8_t r = lo; r <= hi; ++r) {
        mask |= static_cast<uint16_t>(1u << r);
      }
    } else {
      const uint8_t r = ParseReg(part, line_no);
      if (r < 8) {
        mask |= static_cast<uint16_t>(1u << r);
      } else if (r == kRegLr || r == kRegPc) {
        mask |= 0x100;
      } else {
        Fail(line_no, "register not allowed in list: " + std::string(part));
      }
    }
  }
  return mask;
}

// Memory operand forms: [rn], [rn, #imm], [rn, rm].
struct MemOperand {
  uint8_t rn = 0;
  bool has_reg_offset = false;
  uint8_t rm = 0;
  int32_t imm = 0;
};

MemOperand ParseMem(std::string_view raw, int line_no) {
  std::string_view s = Trim(raw);
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') {
    Fail(line_no, "expected memory operand: " + std::string(raw));
  }
  s = s.substr(1, s.size() - 2);
  const std::vector<std::string_view> parts = SplitOperands(s, line_no);
  MemOperand m;
  if (parts.empty()) {
    Fail(line_no, "empty memory operand");
  }
  m.rn = ParseReg(parts[0], line_no);
  if (parts.size() == 2) {
    if (IsImm(parts[1])) {
      m.imm = ParseImm(parts[1], line_no);
    } else {
      m.has_reg_offset = true;
      m.rm = ParseReg(parts[1], line_no);
    }
  } else if (parts.size() > 2) {
    Fail(line_no, "too many memory operand parts: " + std::string(raw));
  }
  return m;
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) {
    return false;
  }
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' && s[0] != '.') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.') {
      return false;
    }
  }
  return true;
}

// A value that is either a literal number or a label reference. The label is a view into
// the source text, which outlives the assembly passes.
struct ValueRef {
  bool is_label = false;
  std::string_view label;
  int64_t value = 0;
};

ValueRef ParseValueRef(std::string_view raw, int line_no) {
  const std::string_view s = Trim(raw);
  ValueRef v;
  if (IsNumber(s)) {
    v.value = ParseNumber(s, line_no);
  } else if (IsIdentifier(s)) {
    v.is_label = true;
    v.label = s;
  } else {
    Fail(line_no, "expected number or label: " + std::string(raw));
  }
  return v;
}

Cond ParseCondSuffix(std::string_view suffix, int line_no) {
  static const std::pair<const char*, Cond> kMap[] = {
      {"eq", Cond::kEq}, {"ne", Cond::kNe}, {"cs", Cond::kCs}, {"hs", Cond::kCs},
      {"cc", Cond::kCc}, {"lo", Cond::kCc}, {"mi", Cond::kMi}, {"pl", Cond::kPl},
      {"vs", Cond::kVs}, {"vc", Cond::kVc}, {"hi", Cond::kHi}, {"ls", Cond::kLs},
      {"ge", Cond::kGe}, {"lt", Cond::kLt}, {"gt", Cond::kGt}, {"le", Cond::kLe}};
  for (const auto& [name, cond] : kMap) {
    if (suffix == name) {
      return cond;
    }
  }
  Fail(line_no, "bad condition suffix: " + std::string(suffix));
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
  struct Item {
    Statement stmt;
    uint32_t offset = 0;  // from base
    uint32_t size = 0;    // bytes
    // For `ldr rX, =value`: index into pool entries.
    int pool_index = -1;
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
      Statement stmt;
      stmt.line_no = line_no;
      const size_t sp = line.find_first_of(" \t");
      const std::string_view mnemonic = line.substr(0, sp);
      // Generated sources are all-lowercase already; hand-written uppercase mnemonics
      // take the slow path through an owned lowercase side table.
      stmt.mnemonic =
          IsAllLower(mnemonic) ? mnemonic : std::string_view(owned_.emplace_back(ToLower(mnemonic)));
      if (sp != std::string_view::npos) {
        stmt.operands = SplitOperands(Trim(line.substr(sp + 1)), line_no);
      }
      Item item;
      item.stmt = std::move(stmt);
      item.size = SizeOf(item);
      // Attach any pending labels to this item (resolved to its offset at layout).
      item_labels_.push_back(std::move(pending_labels_));
      pending_labels_.clear();
      items_.push_back(std::move(item));
    }
    // Labels at end of file point at the end address.
    trailing_labels_ = std::move(pending_labels_);
  }

  // Size of a statement in bytes (before layout; `.align` gets an upper bound, fixed later).
  uint32_t SizeOf(Item& item) {
    const Statement& s = item.stmt;
    if (s.mnemonic == ".word") {
      return static_cast<uint32_t>(4 * s.operands.size());
    }
    if (s.mnemonic == ".half") {
      return static_cast<uint32_t>(2 * s.operands.size());
    }
    if (s.mnemonic == ".byte") {
      return static_cast<uint32_t>(s.operands.size());
    }
    if (s.mnemonic == ".align" || s.mnemonic == ".pool") {
      return 0;  // handled during layout
    }
    if (s.mnemonic == "bl") {
      return 4;
    }
    if (s.mnemonic == "ldr" && s.operands.size() == 2 && !s.operands[1].empty() &&
        Trim(s.operands[1])[0] == '=') {
      item.pool_index = static_cast<int>(pool_.size());
      PoolEntry entry;
      entry.value = ParseValueRef(Trim(s.operands[1]).substr(1), s.line_no);
      pool_.push_back(entry);
      return 2;
    }
    return 2;  // every other supported instruction is one halfword
  }

  void LayoutPass() {
    uint32_t offset = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      Item& item = items_[i];
      const Statement& s = item.stmt;
      if (s.mnemonic == ".align") {
        const int n = s.operands.empty()
                          ? 2
                          : static_cast<int>(ParseNumber(s.operands[0], s.line_no));
        const uint32_t align = 1u << n;
        const uint32_t aligned = (offset + align - 1) & ~(align - 1);
        item.size = aligned - offset;
      } else if (s.mnemonic == ".word") {
        // .word data must be 4-aligned; insert implicit padding.
        const uint32_t aligned = (offset + 3u) & ~3u;
        item.size = static_cast<uint32_t>(aligned - offset + 4 * s.operands.size());
      } else if (s.mnemonic == ".half") {
        const uint32_t aligned = (offset + 1u) & ~1u;
        item.size = static_cast<uint32_t>(aligned - offset + 2 * s.operands.size());
      }
      item.offset = offset;
      for (const std::string_view label : item_labels_[i]) {
        // Labels bind to the aligned start of data for .word/.half.
        uint32_t label_off = offset;
        if (s.mnemonic == ".word") {
          label_off = (offset + 3u) & ~3u;
        } else if (s.mnemonic == ".half") {
          label_off = (offset + 1u) & ~1u;
        }
        DefineSymbol(label, base_ + label_off, item.stmt.line_no);
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
    if (!v.is_label) {
      return static_cast<uint32_t>(v.value);
    }
    const auto it = symbols_.find(v.label);  // heterogeneous: no key allocation
    if (it == symbols_.end()) {
      Fail(line_no, "undefined label: " + std::string(v.label));
    }
    return it->second;
  }

  uint32_t ResolveTarget(std::string_view operand, int line_no) const {
    return Resolve(ParseValueRef(operand, line_no), line_no);
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

  void EmitInstr(const Item& item, const Instr& in) {
    uint16_t hw[2];
    const int n = EncodeInstr(in, hw);
    Put16(item.offset, hw[0]);
    if (n == 2) {
      Put16(item.offset + 2, hw[1]);
    }
  }

  void EmitItem(const Item& item) {
    const Statement& s = item.stmt;
    const int ln = s.line_no;
    const std::string_view m = s.mnemonic;

    if (m == ".align" || m == ".pool") {
      return;  // padding already zeroed
    }
    if (m == ".word") {
      uint32_t off = (item.offset + 3u) & ~3u;
      for (const std::string_view op : s.operands) {
        Put32(off, Resolve(ParseValueRef(op, ln), ln));
        off += 4;
      }
      return;
    }
    if (m == ".half") {
      uint32_t off = (item.offset + 1u) & ~1u;
      for (const std::string_view op : s.operands) {
        Put16(off, static_cast<uint16_t>(ParseNumber(op, ln)));
        off += 2;
      }
      return;
    }
    if (m == ".byte") {
      uint32_t off = item.offset;
      for (const std::string_view op : s.operands) {
        NEUROC_CHECK(off < bytes_.size());
        bytes_[off++] = static_cast<uint8_t>(ParseNumber(op, ln));
      }
      return;
    }
    EmitInstr(item, BuildInstr(item));
  }

  // Builds the Instr for an instruction statement (the bulk of mnemonic dispatch).
  Instr BuildInstr(const Item& item) {
    const Statement& s = item.stmt;
    const int ln = s.line_no;
    const std::string_view m = s.mnemonic;
    const auto& ops = s.operands;
    const uint32_t pc = base_ + item.offset;  // address of this instruction
    Instr in;

    auto require = [&](size_t n) {
      if (ops.size() != n) {
        Fail(ln, std::string(m) + ": expected " + std::to_string(n) + " operands");
      }
    };
    auto branch_offset = [&](std::string_view target) {
      return static_cast<int32_t>(ResolveTarget(target, ln)) -
             static_cast<int32_t>(pc + 4);
    };

    if (m == "nop") {
      in.op = Op::kNop;
      return in;
    }
    if (m == "udf") {
      in.op = Op::kUdf;
      in.imm = ops.empty() ? 0 : ParseImm(ops[0], ln);
      return in;
    }
    if (m == "bx") {
      require(1);
      in.op = Op::kBx;
      in.rm = ParseReg(ops[0], ln);
      return in;
    }
    if (m == "blx") {
      require(1);
      in.op = Op::kBlx;
      in.rm = ParseReg(ops[0], ln);
      return in;
    }
    if (m == "bl") {
      require(1);
      in.op = Op::kBl;
      in.imm = branch_offset(ops[0]);
      return in;
    }
    if (m == "b") {
      require(1);
      in.op = Op::kB;
      in.imm = branch_offset(ops[0]);
      return in;
    }
    if (m.size() >= 3 && m[0] == 'b' && m != "bic" && m != "bics" && m != "byte") {
      // Conditional branch b<cond>.
      require(1);
      in.op = Op::kBcond;
      in.cond = ParseCondSuffix(m.substr(1), ln);
      in.imm = branch_offset(ops[0]);
      return in;
    }
    if (m == "push" || m == "pop") {
      require(1);
      in.op = (m == "push") ? Op::kPush : Op::kPop;
      in.reglist = ParseRegList(ops[0], ln);
      return in;
    }
    if (m == "ldmia" || m == "stmia" || m == "ldm" || m == "stm") {
      require(2);
      std::string_view base = Trim(ops[0]);
      if (!base.empty() && base.back() == '!') {
        base.remove_suffix(1);
      }
      in.op = (m[0] == 'l') ? Op::kLdm : Op::kStm;
      in.rn = ParseReg(base, ln);
      in.reglist = ParseRegList(ops[1], ln);
      if (in.reglist & ~0xFFu) {
        Fail(ln, "ldm/stm support low registers only");
      }
      return in;
    }
    if (m == "movs") {
      require(2);
      in.rd = ParseReg(ops[0], ln);
      if (IsImm(ops[1])) {
        in.op = Op::kMovImm;
        in.imm = ParseImm(ops[1], ln);
      } else {
        // MOVS rd, rm == LSLS rd, rm, #0.
        in.op = Op::kLslImm;
        in.rm = ParseReg(ops[1], ln);
        in.imm = 0;
      }
      return in;
    }
    if (m == "mov") {
      require(2);
      in.op = Op::kMovHi;
      in.rd = ParseReg(ops[0], ln);
      in.rm = ParseReg(ops[1], ln);
      return in;
    }
    if (m == "adds" || m == "subs") {
      const bool add = (m == "adds");
      if (ops.size() == 2) {
        in.rd = ParseReg(ops[0], ln);
        if (IsImm(ops[1])) {
          in.op = add ? Op::kAddImm8 : Op::kSubImm8;
          in.imm = ParseImm(ops[1], ln);
        } else {
          // adds rd, rm == adds rd, rd, rm.
          in.op = add ? Op::kAddReg : Op::kSubReg;
          in.rn = in.rd;
          in.rm = ParseReg(ops[1], ln);
        }
        return in;
      }
      require(3);
      in.rd = ParseReg(ops[0], ln);
      in.rn = ParseReg(ops[1], ln);
      if (IsImm(ops[2])) {
        const int32_t imm = ParseImm(ops[2], ln);
        if (imm < 8) {
          in.op = add ? Op::kAddImm3 : Op::kSubImm3;
          in.imm = imm;
        } else if (in.rd == in.rn && imm < 256) {
          in.op = add ? Op::kAddImm8 : Op::kSubImm8;
          in.imm = imm;
        } else {
          Fail(ln, "immediate out of range for adds/subs");
        }
      } else {
        in.op = add ? Op::kAddReg : Op::kSubReg;
        in.rm = ParseReg(ops[2], ln);
      }
      return in;
    }
    if (m == "add" || m == "sub") {
      // High-register / SP forms.
      if (ops.size() == 2) {
        const uint8_t rd = ParseReg(ops[0], ln);
        if (rd == kRegSp && IsImm(ops[1])) {
          in.op = (m == "add") ? Op::kAddSp7 : Op::kSubSp7;
          in.imm = ParseImm(ops[1], ln);
          return in;
        }
        if (m == "add") {
          in.op = Op::kAddHi;
          in.rd = rd;
          in.rm = ParseReg(ops[1], ln);
          return in;
        }
        Fail(ln, "unsupported sub form");
      }
      if (ops.size() == 3 && m == "add") {
        const uint8_t rd = ParseReg(ops[0], ln);
        const uint8_t rn = ParseReg(ops[1], ln);
        if (rn == kRegSp && IsImm(ops[2])) {
          in.op = Op::kAddSpImm;
          in.rd = rd;
          in.imm = ParseImm(ops[2], ln);
          return in;
        }
        if (rn == kRegSp && rd == kRegSp && IsImm(ops[2])) {
          in.op = Op::kAddSp7;
          in.imm = ParseImm(ops[2], ln);
          return in;
        }
      }
      Fail(ln, "unsupported add/sub form");
    }
    if (m == "cmp") {
      require(2);
      const uint8_t rn = ParseReg(ops[0], ln);
      if (IsImm(ops[1])) {
        in.op = Op::kCmpImm;
        in.rn = rn;
        in.imm = ParseImm(ops[1], ln);
      } else {
        const uint8_t rm = ParseReg(ops[1], ln);
        if (rn < 8 && rm < 8) {
          in.op = Op::kCmpReg;
          in.rd = rn;  // encoded in rdn slot
          in.rn = rn;
          in.rm = rm;
        } else {
          in.op = Op::kCmpHi;
          in.rn = rn;
          in.rm = rm;
        }
      }
      return in;
    }
    if (m == "lsls" || m == "lsrs" || m == "asrs") {
      if (ops.size() == 3 && IsImm(ops[2])) {
        in.rd = ParseReg(ops[0], ln);
        in.rm = ParseReg(ops[1], ln);
        in.imm = ParseImm(ops[2], ln);
        in.op = (m == "lsls") ? Op::kLslImm : (m == "lsrs") ? Op::kLsrImm : Op::kAsrImm;
        return in;
      }
      require(2);
      in.rd = ParseReg(ops[0], ln);
      in.rn = in.rd;
      in.rm = ParseReg(ops[1], ln);
      in.op = (m == "lsls") ? Op::kLslReg : (m == "lsrs") ? Op::kLsrReg : Op::kAsrReg;
      return in;
    }
    if (m == "rsbs" || m == "negs") {
      // rsbs rd, rn, #0  /  negs rd, rn.
      if (!(ops.size() == 2 || (ops.size() == 3 && ParseImm(ops[2], ln) == 0))) {
        Fail(ln, "rsbs supports only #0");
      }
      in.op = Op::kNeg;
      in.rd = ParseReg(ops[0], ln);
      in.rm = ParseReg(ops[1], ln);
      return in;
    }
    // Two-register data-processing forms (rdn, rm), allowing the redundant 3-op spelling
    // `muls rd, rn, rd`.
    static const std::pair<const char*, Op> kDp2[] = {
        {"ands", Op::kAnd}, {"eors", Op::kEor}, {"adcs", Op::kAdc}, {"sbcs", Op::kSbc},
        {"rors", Op::kRor}, {"tst", Op::kTst},  {"cmn", Op::kCmn},  {"orrs", Op::kOrr},
        {"muls", Op::kMul}, {"bics", Op::kBic}, {"mvns", Op::kMvn}};
    for (const auto& [name, op] : kDp2) {
      if (m == name) {
        if (ops.size() == 3) {
          in.rd = ParseReg(ops[0], ln);
          in.rm = ParseReg(ops[1], ln);
          const uint8_t r2 = ParseReg(ops[2], ln);
          if (r2 != in.rd) {
            Fail(ln, std::string(m) + ": destination must equal last operand");
          }
        } else {
          require(2);
          in.rd = ParseReg(ops[0], ln);
          in.rm = ParseReg(ops[1], ln);
        }
        in.rn = in.rd;
        in.op = op;
        return in;
      }
    }
    if (m == "sxtb" || m == "sxth" || m == "uxtb" || m == "uxth" || m == "rev" ||
        m == "rev16" || m == "revsh") {
      require(2);
      in.rd = ParseReg(ops[0], ln);
      in.rm = ParseReg(ops[1], ln);
      in.op = (m == "sxtb")   ? Op::kSxtb
              : (m == "sxth") ? Op::kSxth
              : (m == "uxtb") ? Op::kUxtb
              : (m == "uxth") ? Op::kUxth
              : (m == "rev")  ? Op::kRev
              : (m == "rev16") ? Op::kRev16
                               : Op::kRevsh;
      return in;
    }
    if (m == "adr") {
      require(2);
      in.op = Op::kAdr;
      in.rd = ParseReg(ops[0], ln);
      const uint32_t target = ResolveTarget(ops[1], ln);
      const uint32_t base = (pc + 4) & ~3u;
      if (target < base || (target - base) % 4 != 0) {
        Fail(ln, "adr target out of range");
      }
      in.imm = static_cast<int32_t>(target - base);
      return in;
    }
    if (m == "ldr" || m == "ldrb" || m == "ldrh" || m == "ldrsb" || m == "ldrsh" ||
        m == "str" || m == "strb" || m == "strh") {
      require(2);
      in.rd = ParseReg(ops[0], ln);
      const std::string_view op1 = Trim(ops[1]);
      if (m == "ldr" && !op1.empty() && op1[0] == '=') {
        // Pooled literal load.
        NEUROC_CHECK(item.pool_index >= 0);
        const uint32_t lit_addr = base_ + pool_[item.pool_index].offset;
        const uint32_t base = (pc + 4) & ~3u;
        if (lit_addr < base || lit_addr - base >= 1024) {
          Fail(ln, "literal pool out of range; add a .pool directive closer to use");
        }
        in.op = Op::kLdrLit;
        in.imm = static_cast<int32_t>(lit_addr - base);
        return in;
      }
      const MemOperand mem = ParseMem(op1, ln);
      if (mem.has_reg_offset) {
        in.rn = mem.rn;
        in.rm = mem.rm;
        in.op = (m == "ldr")    ? Op::kLdrReg
                : (m == "ldrb") ? Op::kLdrbReg
                : (m == "ldrh") ? Op::kLdrhReg
                : (m == "ldrsb") ? Op::kLdrsbReg
                : (m == "ldrsh") ? Op::kLdrshReg
                : (m == "str")   ? Op::kStrReg
                : (m == "strb")  ? Op::kStrbReg
                                 : Op::kStrhReg;
        return in;
      }
      if (mem.rn == kRegSp) {
        if (m == "ldr") {
          in.op = Op::kLdrSp;
        } else if (m == "str") {
          in.op = Op::kStrSp;
        } else {
          Fail(ln, "only word-sized SP-relative access supported");
        }
        in.imm = mem.imm;
        return in;
      }
      if (mem.rn == kRegPc) {
        if (m != "ldr") {
          Fail(ln, "only ldr supports PC-relative access");
        }
        in.op = Op::kLdrLit;
        in.imm = mem.imm;
        return in;
      }
      in.rn = mem.rn;
      in.imm = mem.imm;
      if (m == "ldr") {
        in.op = Op::kLdrImm;
      } else if (m == "str") {
        in.op = Op::kStrImm;
      } else if (m == "ldrb") {
        in.op = Op::kLdrbImm;
      } else if (m == "strb") {
        in.op = Op::kStrbImm;
      } else if (m == "ldrh") {
        in.op = Op::kLdrhImm;
      } else if (m == "strh") {
        in.op = Op::kStrhImm;
      } else {
        Fail(ln, std::string(m) + " has no immediate-offset encoding in Thumb-1");
      }
      return in;
    }
    Fail(ln, "unknown mnemonic: " + std::string(m));
  }

  // Hash map with heterogeneous lookup so branch-target resolution (one per bl/b in a
  // 100k-line unrolled kernel) is O(1) with no temporary std::string keys.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  uint32_t base_;
  std::vector<Item> items_;
  std::vector<std::vector<std::string_view>> item_labels_;
  std::vector<std::string_view> pending_labels_;
  std::vector<std::string_view> trailing_labels_;
  std::vector<PoolEntry> pool_;
  uint32_t pool_base_ = 0;
  uint32_t total_size_ = 0;
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> symbols_;
  std::deque<std::string> owned_;  // lowercase copies of non-lowercase mnemonics
  std::vector<uint8_t> bytes_;
};

}  // namespace

AssembledProgram Assemble(const std::string& source, uint32_t base_addr) {
  AssemblerImpl impl(source, base_addr);
  return impl.Take();
}

}  // namespace neuroc
