#include "net/filter.h"

#include <algorithm>

#include "util/check.h"

namespace farm::net {

bool FilterAtom::matches(const PacketHeader& h, int at_iface) const {
  switch (field) {
    case FilterField::kTrue:
      return true;
    case FilterField::kSrcIp:
      return prefix.contains(h.src_ip);
    case FilterField::kDstIp:
      return prefix.contains(h.dst_ip);
    case FilterField::kSrcPort:
      return h.src_port >= port_lo && h.src_port <= port_hi;
    case FilterField::kDstPort:
      return h.dst_port >= port_lo && h.dst_port <= port_hi;
    case FilterField::kL4Port:
      return (h.src_port >= port_lo && h.src_port <= port_hi) ||
             (h.dst_port >= port_lo && h.dst_port <= port_hi);
    case FilterField::kProto:
      return h.proto == proto;
    case FilterField::kIfacePort:
      // Matches the interface the packet was observed on when known;
      // unknown observation point or ANY atom both match.
      return at_iface < 0 || iface < 0 || at_iface == iface;
  }
  return false;
}

std::string FilterAtom::to_string() const {
  switch (field) {
    case FilterField::kTrue:
      return "true";
    case FilterField::kSrcIp:
      return "srcIP " + prefix.to_string();
    case FilterField::kDstIp:
      return "dstIP " + prefix.to_string();
    case FilterField::kSrcPort:
      return "srcPort " + std::to_string(port_lo) + "-" +
             std::to_string(port_hi);
    case FilterField::kDstPort:
      return "dstPort " + std::to_string(port_lo) + "-" +
             std::to_string(port_hi);
    case FilterField::kL4Port:
      return "port " + std::to_string(port_lo) +
             (port_hi != port_lo ? "-" + std::to_string(port_hi) : "");
    case FilterField::kProto:
      return "proto " + std::to_string(static_cast<int>(proto));
    case FilterField::kIfacePort:
      return iface < 0 ? "iface ANY" : "iface " + std::to_string(iface);
  }
  return "?";
}

Filter::Filter() : Filter(atom(FilterAtom{})) {}

Filter Filter::atom(FilterAtom a) {
  auto n = std::make_shared<Node>();
  n->op = Op::kAtom;
  n->atom = a;
  return Filter(std::move(n));
}

Filter Filter::src_ip(Prefix p) {
  return atom({.field = FilterField::kSrcIp, .prefix = p});
}
Filter Filter::dst_ip(Prefix p) {
  return atom({.field = FilterField::kDstIp, .prefix = p});
}
Filter Filter::src_port(std::uint16_t lo, std::uint16_t hi) {
  return atom({.field = FilterField::kSrcPort, .port_lo = lo, .port_hi = hi});
}
Filter Filter::dst_port(std::uint16_t lo, std::uint16_t hi) {
  return atom({.field = FilterField::kDstPort, .port_lo = lo, .port_hi = hi});
}
Filter Filter::l4_port(std::uint16_t port) {
  return atom(
      {.field = FilterField::kL4Port, .port_lo = port, .port_hi = port});
}
Filter Filter::proto(Proto p) {
  return atom({.field = FilterField::kProto, .proto = p});
}
Filter Filter::iface(std::int32_t port_index) {
  return atom({.field = FilterField::kIfacePort, .iface = port_index});
}

Filter Filter::conj(Filter a, Filter b) {
  if (a.is_true()) return b;
  if (b.is_true()) return a;
  auto n = std::make_shared<Node>();
  n->op = Op::kAnd;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return Filter(std::move(n));
}

Filter Filter::disj(Filter a, Filter b) {
  auto n = std::make_shared<Node>();
  n->op = Op::kOr;
  n->lhs = a.node_;
  n->rhs = b.node_;
  return Filter(std::move(n));
}

Filter Filter::negate(Filter a) {
  auto n = std::make_shared<Node>();
  n->op = Op::kNot;
  n->lhs = a.node_;
  return Filter(std::move(n));
}

bool Filter::matches(const PacketHeader& h, int at_iface) const {
  // Recursive evaluation over the tree.
  struct Eval {
    static bool run(const Node* n, const PacketHeader& h, int at_iface) {
      switch (n->op) {
        case Op::kAtom:
          return n->atom.matches(h, at_iface);
        case Op::kAnd:
          return run(n->lhs.get(), h, at_iface) &&
                 run(n->rhs.get(), h, at_iface);
        case Op::kOr:
          return run(n->lhs.get(), h, at_iface) ||
                 run(n->rhs.get(), h, at_iface);
        case Op::kNot:
          return !run(n->lhs.get(), h, at_iface);
      }
      return false;
    }
  };
  return Eval::run(node_.get(), h, at_iface);
}

bool Filter::is_true() const {
  return node_->op == Op::kAtom && node_->atom.field == FilterField::kTrue;
}

std::string Filter::Literal::to_string() const {
  return (negated ? "!" : "") + atom.to_string();
}

std::vector<Filter::Conjunct> Filter::dnf_of(const Node* n, bool negated) {
  switch (n->op) {
    case Op::kAtom:
      return {{Literal{n->atom, negated}}};
    case Op::kNot:
      return dnf_of(n->lhs.get(), !negated);
    case Op::kAnd:
    case Op::kOr: {
      // Under negation, AND and OR swap (De Morgan).
      bool is_and = (n->op == Op::kAnd) != negated;
      auto l = dnf_of(n->lhs.get(), negated);
      auto r = dnf_of(n->rhs.get(), negated);
      if (!is_and) {
        l.insert(l.end(), r.begin(), r.end());
        return l;
      }
      // Cross-product of conjuncts.
      std::vector<Conjunct> out;
      out.reserve(l.size() * r.size());
      for (const auto& lc : l)
        for (const auto& rc : r) {
          Conjunct c = lc;
          c.insert(c.end(), rc.begin(), rc.end());
          out.push_back(std::move(c));
        }
      return out;
    }
  }
  return {};
}

std::vector<Filter::Conjunct> Filter::to_dnf() const {
  auto dnf = dnf_of(node_.get(), false);
  // Canonicalize: sort literals within conjuncts, dedup, sort conjuncts.
  for (auto& c : dnf) {
    std::sort(c.begin(), c.end(), [](const Literal& a, const Literal& b) {
      return a.to_string() < b.to_string();
    });
    c.erase(std::unique(c.begin(), c.end(),
                        [](const Literal& a, const Literal& b) {
                          return a.to_string() == b.to_string();
                        }),
            c.end());
  }
  std::sort(dnf.begin(), dnf.end(),
            [](const Conjunct& a, const Conjunct& b) {
              auto str = [](const Conjunct& c) {
                std::string s;
                for (const auto& l : c) s += l.to_string() + "&";
                return s;
              };
              return str(a) < str(b);
            });
  return dnf;
}

const Filter::Derived& Filter::derived() const {
  const Node& n = *node_;
  std::call_once(n.once, [this, &n] {
    Derived& d = n.derived;
    for (const auto& c : to_dnf()) {
      for (const auto& l : c) {
        d.key += l.to_string() + "&";
        if (l.atom.field != FilterField::kIfacePort) continue;
        // Footprint: kAllIfaces once any interface atom is a wildcard.
        if (d.footprint != kAllIfaces)
          d.footprint = l.atom.iface < 0 ? kAllIfaces : d.footprint + 1;
        if (l.atom.iface >= 0 && !l.negated)
          d.iface_atoms.push_back(l.atom.iface);
      }
      d.key += "|";
    }
    std::sort(d.iface_atoms.begin(), d.iface_atoms.end());
    d.iface_atoms.erase(std::unique(d.iface_atoms.begin(), d.iface_atoms.end()),
                        d.iface_atoms.end());
  });
  return n.derived;
}

std::vector<std::string> Filter::polling_subjects() const {
  std::vector<std::string> out;
  for (const auto& c : to_dnf()) {
    std::string s;
    for (const auto& l : c) s += l.to_string() + "&";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Filter::poll_entries(int n_ifaces) const {
  int fp = iface_footprint();
  if (fp == kAllIfaces) return n_ifaces;
  return fp > 0 ? fp : 1;
}

std::string Filter::to_string() const {
  struct Fmt {
    static std::string run(const Node* n) {
      switch (n->op) {
        case Op::kAtom:
          return n->atom.to_string();
        case Op::kAnd:
          return "(" + run(n->lhs.get()) + " and " + run(n->rhs.get()) + ")";
        case Op::kOr:
          return "(" + run(n->lhs.get()) + " or " + run(n->rhs.get()) + ")";
        case Op::kNot:
          return "not " + run(n->lhs.get());
      }
      return "?";
    }
  };
  return Fmt::run(node_.get());
}

}  // namespace farm::net
