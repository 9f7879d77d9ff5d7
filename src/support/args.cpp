#include "support/args.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace eagle::support {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::AddInt(const std::string& name, std::int64_t v,
                             const std::string& help) {
  Flag f;
  f.kind = Kind::kInt;
  f.help = help;
  f.int_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddDouble(const std::string& name, double v,
                                const std::string& help) {
  Flag f;
  f.kind = Kind::kDouble;
  f.help = help;
  f.double_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddBool(const std::string& name, bool v,
                              const std::string& help) {
  Flag f;
  f.kind = Kind::kBool;
  f.help = help;
  f.bool_value = v;
  flags_[name] = std::move(f);
  return *this;
}

ArgParser& ArgParser::AddString(const std::string& name, const std::string& v,
                                const std::string& help) {
  Flag f;
  f.kind = Kind::kString;
  f.help = help;
  f.string_value = v;
  flags_[name] = std::move(f);
  return *this;
}

void ArgParser::SetFromString(Flag& flag, const std::string& name,
                              const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::kInt:
        flag.int_value = std::stoll(value);
        break;
      case Kind::kDouble:
        flag.double_value = std::stod(value);
        break;
      case Kind::kBool:
        if (value == "true" || value == "1") {
          flag.bool_value = true;
        } else if (value == "false" || value == "0") {
          flag.bool_value = false;
        } else {
          throw std::invalid_argument("bad bool");
        }
        break;
      case Kind::kString:
        flag.string_value = value;
        break;
    }
  } catch (const std::exception&) {
    throw std::invalid_argument("invalid value '" + value + "' for --" + name);
  }
}

bool ArgParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::invalid_argument("unknown flag --" + name + "\n" + Usage());
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        flag.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    SetFromString(flag, name, value);
  }
  return true;
}

const ArgParser::Flag& ArgParser::Find(const std::string& name,
                                       Kind kind) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.kind != kind) {
    throw std::invalid_argument("flag --" + name +
                                " not registered with that type");
  }
  return it->second;
}

std::int64_t ArgParser::GetInt(const std::string& name) const {
  return Find(name, Kind::kInt).int_value;
}
double ArgParser::GetDouble(const std::string& name) const {
  return Find(name, Kind::kDouble).double_value;
}
bool ArgParser::GetBool(const std::string& name) const {
  return Find(name, Kind::kBool).bool_value;
}
const std::string& ArgParser::GetString(const std::string& name) const {
  return Find(name, Kind::kString).string_value;
}

std::string ArgParser::Usage() const {
  std::ostringstream os;
  if (!description_.empty()) os << description_ << "\n";
  os << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kInt: os << "=<int> (default " << flag.int_value << ")"; break;
      case Kind::kDouble:
        os << "=<float> (default " << flag.double_value << ")";
        break;
      case Kind::kBool:
        os << " (default " << (flag.bool_value ? "true" : "false") << ")";
        break;
      case Kind::kString:
        os << "=<str> (default \"" << flag.string_value << "\")";
        break;
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  std::istringstream in(list);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace eagle::support
